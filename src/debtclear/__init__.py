"""debtclear: settle group debts with a minimal number of payments.

The package maintains a borrowing graph under node and arc updates and
answers settlement queries by partitioning the nonzero-balance nodes
into as many disjoint zero-sum groups as possible.
"""

from .bench import (
    CASE_TABLE,
    BenchReport,
    BenchRow,
    CaseSpec,
    SplitMix64,
    generate_case,
    run_benchmark,
)
from .engine import SubsetSumEngine
from .errors import (
    AmountError,
    BenchError,
    CapacityError,
    ContractError,
    DebtClearError,
    LoopError,
    MoneyOverflowError,
    OracleLimitError,
    ParseError,
    ScriptError,
    StaleMaskError,
    UnknownNodeError,
)
from .formats import format_plan, format_static, parse_static, run_script
from .ledger import Ledger, QueryStats, solve_static, solve_static_with_stats
from .model import (
    Borrowing,
    Money,
    NodeId,
    Transaction,
    TransactionPlan,
    balances_of,
    plan_settles,
)
from .oracle import ORACLE_LIMIT, OracleResult, oracle_max_zero_partition
from .partition import clear_non_atomic, clear_pairs, max_partition, min_removal_set, settle_part

__version__ = "0.1.0"

__all__ = [
    "AmountError",
    "BenchError",
    "BenchReport",
    "BenchRow",
    "Borrowing",
    "CASE_TABLE",
    "CapacityError",
    "CaseSpec",
    "ContractError",
    "DebtClearError",
    "Ledger",
    "LoopError",
    "Money",
    "MoneyOverflowError",
    "NodeId",
    "ORACLE_LIMIT",
    "OracleLimitError",
    "OracleResult",
    "ParseError",
    "QueryStats",
    "ScriptError",
    "SplitMix64",
    "StaleMaskError",
    "SubsetSumEngine",
    "Transaction",
    "TransactionPlan",
    "UnknownNodeError",
    "balances_of",
    "clear_non_atomic",
    "clear_pairs",
    "format_plan",
    "format_static",
    "generate_case",
    "max_partition",
    "min_removal_set",
    "oracle_max_zero_partition",
    "parse_static",
    "plan_settles",
    "run_benchmark",
    "run_script",
    "settle_part",
    "solve_static",
    "solve_static_with_stats",
]

import pytest

from debtclear import (
    CASE_TABLE,
    CaseSpec,
    ContractError,
    MoneyOverflowError,
    OracleLimitError,
    balances_of,
    generate_case,
    oracle_max_zero_partition,
    solve_static,
)
from debtclear.bits import bit_positions
from debtclear.model import MONEY_MAX

from _support import EXAMPLE1, EXAMPLE1_BALANCES, growth_balances, hub_arcs, random_instance


def test_oracle_worked_example():
    res = oracle_max_zero_partition(EXAMPLE1_BALANCES)
    assert res.max_parts == 2
    assert res.min_transactions == 2


def test_oracle_triple():
    res = oracle_max_zero_partition({1: 2, 2: 2, 3: -4})
    assert res.max_parts == 1
    assert res.min_transactions == 2


def test_oracle_all_zero():
    res = oracle_max_zero_partition({1: 0, 2: 0})
    assert res == type(res)(0, 0, [])


def test_oracle_size_guard():
    # one balance over the guard of 20
    debts = {i: 1 for i in range(20)}
    debts[99] = -20
    with pytest.raises(OracleLimitError):
        oracle_max_zero_partition(debts)


def test_oracle_refuses_totals_outside_int64():
    # only the full set sums to zero, but int64 totals would wrap 2^64 to 0
    # and show {1,2,3} and {4,5} as zero sets too
    m = MONEY_MAX
    with pytest.raises(MoneyOverflowError):
        oracle_max_zero_partition({1: m, 2: m, 3: 2, 4: -m - 1, 5: -m - 1})
    res = oracle_max_zero_partition({1: m - 1, 2: 1, 3: -m})  # totals at the edge
    assert res.max_parts == 1 and res.min_transactions == 2


def test_oracle_rejects_unbalanced_input():
    with pytest.raises(ContractError):
        oracle_max_zero_partition({1: 3, 2: -2})


def validate_witness(debts, res):
    nodes = sorted(u for u, d in debts.items() if d != 0)
    seen = 0
    for mask in res.witness:
        assert seen & mask == 0
        seen |= mask
        assert sum(debts[nodes[i]] for i in bit_positions(mask)) == 0
    assert seen == (1 << len(nodes)) - 1
    assert len(res.witness) == res.max_parts


def test_oracle_witness_validates():
    res = oracle_max_zero_partition(EXAMPLE1_BALANCES)
    validate_witness(EXAMPLE1_BALANCES, res)


@pytest.mark.parametrize("seed", range(25))
def test_oracle_agrees_with_solver(seed):
    n, arcs = random_instance(seed, max_n=9, max_m=25, max_w=9)
    debts = balances_of(arcs)
    res = oracle_max_zero_partition(debts)
    validate_witness(debts, res)
    assert len(solve_static(arcs, n)) == res.min_transactions
    vstar = sum(1 for d in debts.values() if d != 0)
    assert res.min_transactions == vstar - res.max_parts


@pytest.mark.parametrize("source", ["growth17", "growth18", "growth19", "growth20", 5, 12, 13, 14])
def test_oracle_agrees_with_solver_at_17_to_20_balances(source):
    if isinstance(source, str):
        k = int(source.removeprefix("growth"))
        arcs = hub_arcs(growth_balances(k, k))
        n, known = k + 1, None
    else:
        (n, arcs), known = generate_case(CaseSpec(source)), CASE_TABLE[source][2]
    debts = balances_of(arcs)
    assert 17 <= sum(1 for d in debts.values() if d) <= 20
    res = oracle_max_zero_partition(debts)
    validate_witness(debts, res)
    assert res.min_transactions == (known if known is not None else len(solve_static(arcs, n)))

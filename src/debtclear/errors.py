"""Exception hierarchy for the debtclear package."""


class DebtClearError(Exception):
    """Base class for all errors raised by this package."""


class UnknownNodeError(DebtClearError):
    """An operation referenced a node that does not exist or is not live."""


class LoopError(DebtClearError):
    """A borrowing or transaction had identical endpoints."""


class AmountError(DebtClearError):
    """An amount was zero, negative, or otherwise outside the money domain."""


class MoneyOverflowError(DebtClearError):
    """A balance or subset sum would exceed the signed 64-bit money range."""


class CapacityError(DebtClearError):
    """A table would span more than ``bits.SLOTS_MAX`` (24) slots.

    Raised before anything changes or is allocated: an arc or rebuild that
    would leave more nonzero balances, a departure over a zero mask of more
    slots, or a packed mask set wider than the bound.
    """


class StaleMaskError(DebtClearError):
    """A subset sum was requested for a mask outside the live slot set."""


class ContractError(DebtClearError):
    """An internal precondition was violated by the caller."""


class OracleLimitError(DebtClearError):
    """The exact oracle was asked to check more balances than its guard admits."""


class ParseError(DebtClearError):
    """A static instance file or script line could not be parsed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ScriptError(DebtClearError):
    """A script command failed; carries the 1-based command index."""

    def __init__(self, command_no: int, message: str):
        super().__init__(f"command {command_no}: {message}")
        self.command_no = command_no


class BenchError(DebtClearError):
    """The benchmark harness detected an inconsistency between algorithms."""

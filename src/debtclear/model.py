"""Domain vocabulary: borrowings, net balances, transactions and plans.

A borrowing graph is a list of directed, weighted arcs without loops;
arc (u, v, x) means u must pay x to v.  The only quantity the optimizer
needs is each node's net balance: total owed minus total lent.  Two
graphs are interchangeable exactly when they induce the same balances,
so a settlement plan is correct iff it reproduces the balance vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import AmountError, LoopError, MoneyOverflowError, UnknownNodeError

NodeId = int
Money = int

MONEY_MAX = 2**63 - 1
MONEY_MIN = -(2**63)


def _check_money(amount: int) -> None:
    if not (MONEY_MIN <= amount <= MONEY_MAX):
        raise MoneyOverflowError(f"amount {amount} outside signed 64-bit range")


def _check_node(what: str, u) -> None:
    """Refuse a node id that is not a non-negative ``int``; a ``bool`` is not one."""
    if type(u) is not int or u < 0:
        raise UnknownNodeError(f"{what} node id must be a non-negative integer, got {u!r}")


def _check_amount(what: str, amount) -> None:
    """Refuse an amount that is not a positive ``int`` within the int64 range."""
    if type(amount) is not int or amount <= 0:
        raise AmountError(f"{what} amount must be a positive integer, got {amount!r}")
    if amount > MONEY_MAX:
        raise MoneyOverflowError(f"{what} amount {amount} outside signed 64-bit range")


@dataclass(frozen=True, slots=True)
class Borrowing:
    """One borrowing record: ``borrower`` must pay ``amount`` to ``lender``."""

    borrower: NodeId
    lender: NodeId
    amount: Money

    def __post_init__(self):
        _check_node("borrowing", self.borrower)
        _check_node("borrowing", self.lender)
        if self.borrower == self.lender:
            raise LoopError(f"borrowing from node {self.borrower} to itself")
        _check_amount("borrowing", self.amount)


@dataclass(frozen=True, slots=True)
class Transaction:
    """One settlement payment from ``sender`` to ``receiver``."""

    sender: NodeId
    receiver: NodeId
    amount: Money

    def __post_init__(self):
        _check_node("transaction", self.sender)
        _check_node("transaction", self.receiver)
        if self.sender == self.receiver:
            raise LoopError(f"transaction from node {self.sender} to itself")
        _check_amount("transaction", self.amount)


class TransactionPlan:
    """An ordered, duplicate-free list of transactions.

    Payments that share a (sender, receiver) pair are merged by summing
    their amounts; merging never changes the induced balances and never
    increases the arc count.  Transactions are kept sorted by
    (sender, receiver).
    """

    __slots__ = ("transactions",)

    def __init__(self, transactions: Iterable[Transaction] = ()):
        merged: dict[tuple[NodeId, NodeId], Money] = {}
        for t in transactions:
            key = (t.sender, t.receiver)
            merged[key] = merged.get(key, 0) + t.amount
            _check_money(merged[key])
        self.transactions = [
            Transaction(s, r, a) for (s, r), a in sorted(merged.items())
        ]

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self):
        return iter(self.transactions)

    def __eq__(self, other) -> bool:
        return isinstance(other, TransactionPlan) and self.transactions == other.transactions

    def __repr__(self) -> str:
        return f"TransactionPlan({self.transactions!r})"


def balances_of(borrowings: Iterable[Borrowing]) -> dict[NodeId, Money]:
    """Net balance of every node mentioned by ``borrowings``.

    Positive means the node still owes money overall, negative that it is
    owed money.  Nodes not mentioned have balance 0 and are omitted.
    """
    debts: dict[NodeId, Money] = {}
    for b in borrowings:
        debts[b.borrower] = debts.get(b.borrower, 0) + b.amount
        debts[b.lender] = debts.get(b.lender, 0) - b.amount
    for v in debts.values():
        _check_money(v)
    return debts


def _plan_balances(plan: TransactionPlan) -> dict[NodeId, Money]:
    debts: dict[NodeId, Money] = {}
    for t in plan:
        debts[t.sender] = debts.get(t.sender, 0) + t.amount
        debts[t.receiver] = debts.get(t.receiver, 0) - t.amount
    return debts


def plan_settles(debts: Mapping[NodeId, Money], plan: TransactionPlan) -> bool:
    """True iff ``plan`` induces exactly the given balance vector."""
    want = {k: v for k, v in debts.items() if v != 0}
    got = {k: v for k, v in _plan_balances(plan).items() if v != 0}
    return want == got

"""Dynamic ledger facade: node/arc updates plus settlement queries.

A ``Ledger`` owns a subset-sum engine and exposes the five update/query
operations of the dynamic problem.  ``solve_static`` runs the same
optimization pipeline over a one-shot batch of borrowings, differing
from a query only in how the sums table is built (batch recurrence
instead of per-arc patching).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .engine import DEFAULT_CAPACITY, SubsetSumEngine
from .errors import LoopError, UnknownNodeError
from .heuristics import clear_non_atomic, clear_pairs
from .model import Borrowing, Money, NodeId, Transaction, TransactionPlan, balances_of
from .partition import max_partition, min_removal_set, settle_part


@dataclass(frozen=True)
class QueryStats:
    """Pipeline size counters for one optimization run."""

    vstar_size: int
    zero_set_count: int
    reduced_zero_set_count: int


def _optimize(engine: SubsetSumEngine) -> tuple[TransactionPlan, QueryStats]:
    """Shared query pipeline: zero sets, both reductions, dp, settlement."""
    s0 = engine.zero_sets()
    ext = clear_pairs(s0)
    atoms = clear_non_atomic(ext.reduced)
    residual = engine.live_mask & ~ext.in_pair
    result = max_partition(residual, atoms, universe=ext.reduced)
    slots = engine.node_slots()
    debts = engine.balances()
    txns: list[Transaction] = []
    for part in ext.fixed_parts + result.parts:
        txns.extend(settle_part(part, slots, debts))
    stats = QueryStats(engine.vstar_size, len(s0), len(atoms))
    return TransactionPlan(txns), stats


class Ledger:
    """A borrowing graph under updates, always ready to settle.

    Only net balances are stored; the borrowing multigraph itself is not
    retained.  Node ids are handed out sequentially and never reused.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self._engine = SubsetSumEngine(capacity)
        self._next_id: NodeId = 0
        self._live: set[NodeId] = set()

    # ---- views ---------------------------------------------------------

    @property
    def engine(self) -> SubsetSumEngine:
        return self._engine

    @property
    def live_nodes(self) -> frozenset[NodeId]:
        return frozenset(self._live)

    @property
    def debts(self) -> dict[NodeId, Money]:
        """Net balance of every live node (zero included)."""
        return {u: self._engine.debt(u) for u in sorted(self._live)}

    def _check_live(self, u: NodeId) -> None:
        if u not in self._live:
            raise UnknownNodeError(f"node {u} is not a live node")

    # ---- updates ---------------------------------------------------------

    def insert_node(self) -> NodeId:
        """Add a fresh node with zero balance; the engine is untouched."""
        u = self._next_id
        self._next_id += 1
        self._live.add(u)
        return u

    def insert_arc(self, u: NodeId, v: NodeId, x: Money) -> None:
        """Record that ``u`` must pay ``x`` to ``v``."""
        self._check_live(u)
        self._check_live(v)
        self._engine.apply_arc_delta(u, v, x)

    def remove_arc(self, u: NodeId, v: NodeId) -> None:
        """Cancel the outstanding debt between ``u`` and ``v``.

        Only net balances are known, so cancellation means paying back as
        much as both sides' balances support: an opposite-direction arc
        of the smaller magnitude.  If the balances share a sign (or either
        is zero) no minimal plan would route a payment between the two
        nodes, and nothing changes.
        """
        self._check_live(u)
        self._check_live(v)
        if u == v:
            raise LoopError(f"arc from node {u} to itself")
        du = self._engine.debt(u)
        dv = self._engine.debt(v)
        if du < 0 and dv > 0:
            self._engine.apply_arc_delta(u, v, min(-du, dv))
        elif du > 0 and dv < 0:
            self._engine.apply_arc_delta(v, u, min(du, -dv))

    def remove_node(self, u: NodeId) -> list[Transaction]:
        """Retire ``u``, first settling its debts in a smallest zero-sum group.

        The group is chosen so the rest of the graph can still reach its
        optimal plan afterwards, by the level DP of ``min_removal_set`` on
        the packed zero sets of the whole live table: no zero-set list, and
        no pair extraction, which can hide the group that best covers ``u``.
        Every settled member stays a live node with zero balance; only
        ``u`` itself is retired.  A ``CapacityError`` changes nothing.
        """
        self._check_live(u)
        if self._engine.debt(u) == 0:
            self._live.remove(u)
            return []
        part = min_removal_set(
            self._engine.zero_bits(), self._engine.vstar_size, self._engine.slot_of(u)
        )
        txns = settle_part(part, self._engine.node_slots(), self._engine.balances())
        self._engine.clear_block(part)
        self._live.remove(u)
        return txns

    # ---- queries -----------------------------------------------------------

    def query_with_stats(self) -> tuple[TransactionPlan, QueryStats]:
        """Like :meth:`query`, also reporting pipeline size counters."""
        return _optimize(self._engine)

    def query(self) -> TransactionPlan:
        """A smallest settlement plan for the current balances.

        Non-mutating: the plan is advisory and the ledger keeps evolving
        afterwards.  The plan has one payment per nonzero balance minus one per
        zero-sum group of the maximal partition.
        """
        return _optimize(self._engine)[0]


def solve_static_with_stats(
    borrowings: Iterable[Borrowing], n: int
) -> tuple[TransactionPlan, QueryStats]:
    """Batch pipeline: balances in one pass, sums by recurrence, then optimize."""
    borrowings = list(borrowings)
    for b in borrowings:
        if b.borrower >= n or b.lender >= n:
            raise UnknownNodeError(
                f"borrowing {b.borrower}->{b.lender} references a node >= {n}"
            )
    engine = SubsetSumEngine()
    engine.rebuild_from_debts(balances_of(borrowings))
    return _optimize(engine)


def solve_static(borrowings: Iterable[Borrowing], n: int) -> TransactionPlan:
    """A smallest settlement plan for a one-shot list of borrowings."""
    return solve_static_with_stats(borrowings, n)[0]

"""Stateful differential test of ``Ledger``.

hypothesis drives one ledger through node and arc insertions,
cancellations, departures and queries.  After every step the live sums
table is audited against direct summation and must be wide enough for
the balance totals, and no wider after a rewrite from slot 0; both
zero-set views must match a fresh scan of it
(the engine keeps its zero mask between writes), and the size of the
ledger's plan is checked against a batch solve of the same balances
and, up to ORACLE_K balances, against the exact oracle.  Refused
arcs must leave the engine exactly as it was.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from debtclear import (
    AmountError,
    Borrowing,
    CapacityError,
    Ledger,
    LoopError,
    TransactionPlan,
    bits,
    oracle_max_zero_partition,
    plan_settles,
    solve_static,
)

from _support import audit_sums, engine_digest

MAX_NODES = 14
ORACLE_K = 10


def narrowest(debts: dict[int, int]) -> int:
    """Item size of the narrowest width that holds both balance totals."""
    pos = sum(d for d in debts.values() if d > 0)
    neg = sum(d for d in debts.values() if d < 0)
    return next(
        t.bits // 8 for t in map(np.iinfo, (np.int8, np.int16, np.int32, np.int64))
        if t.min <= neg and pos <= t.max
    )


def from_slot_0(eng) -> bool:
    """Whether the engine's last refresh ran from slot 0: 2^k - 1 writes."""
    return eng.last_touched_sums == (1 << eng.vstar_size) - 1


def width_after(eng, before: int) -> int:
    """Item size the last refresh must leave, the table's being ``before``:
    the narrowest from slot 0, else never narrower than before or than
    the balances need."""
    need = narrowest(eng.balances())
    return need if from_slot_0(eng) else max(before, need)


def optimum(debts: dict[int, int]) -> int:
    """Payments in a smallest plan for ``debts``, by a batch solve of
    borrowings through a hub node, whose balance comes out zero."""
    hub = max(debts, default=0) + 1
    arcs = [Borrowing(u, hub, d) if d > 0 else Borrowing(hub, u, -d) for u, d in debts.items()]
    return len(solve_static(arcs, hub + 1))


class LedgerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.led = Ledger()

    @initialize(n=st.integers(2, MAX_NODES))
    def open_nodes(self, n):
        for _ in range(n):
            self.led.insert_node()

    def pick(self, i: int) -> int:
        nodes = sorted(self.led.live_nodes)
        return nodes[i % len(nodes)]

    def two_live(self) -> bool:
        return len(self.led.live_nodes) >= 2

    @precondition(lambda self: len(self.led.live_nodes) < MAX_NODES)
    @rule()
    def insert_node(self):
        u = self.led.insert_node()
        assert self.led.debts[u] == 0

    @precondition(two_live)
    @rule(
        i=st.integers(0, 63),
        j=st.integers(0, 63),
        x=st.one_of(st.integers(1, 8), st.sampled_from([0, 2.5])),
    )
    def insert_arc(self, i, j, x):
        u, v = self.pick(i), self.pick(j)
        debts = self.led.debts
        if u == v or x in (0, 2.5):
            before = engine_digest(self.led.engine)
            with pytest.raises(LoopError if u == v else AmountError):
                self.led.insert_arc(u, v, x)
            assert engine_digest(self.led.engine) == before
            return
        self.led.insert_arc(u, v, x)
        assert self.led.debts == {**debts, u: debts[u] + x, v: debts[v] - x}

    @precondition(lambda self: 0 in self.led.debts.values() and self.two_live())
    @rule(i=st.integers(0, 63), x=st.integers(1, 8))
    def insert_arc_over_table_budget(self, i, x):
        # a zero-balance node enters while the other endpoint stays live,
        # so the table would need one more slot than the bound allows
        debts = self.led.debts
        u = min(w for w, d in debts.items() if d == 0)
        v = self.pick(i)
        if v == u:
            v = self.pick(i + 1)
        if debts[v] == x:
            x += 1
        eng = self.led.engine
        before = engine_digest(eng)
        saved = bits.SLOTS_MAX
        bits.SLOTS_MAX = eng.vstar_size
        try:
            with pytest.raises(CapacityError):
                self.led.insert_arc(u, v, x)
        finally:
            bits.SLOTS_MAX = saved
        assert engine_digest(eng) == before

    @precondition(two_live)
    @rule(
        i=st.integers(0, 63),
        j=st.integers(0, 63),
        edge=st.sampled_from([2**7, 2**15, 2**31]),
        step=st.integers(-1, 1),
    )
    def cross_a_table_width(self, i, j, edge, step):
        # an arc from a node owed nothing to one owing nothing raises the
        # positive total by its amount: to edge - 1, edge or edge + 1 of
        # the int8, int16 or int32 range; cancelling it brings the total
        # back, and narrows the table again when it rewrites from slot 0
        debts = self.led.debts
        ups = [w for w in sorted(debts) if debts[w] >= 0]
        u = ups[i % len(ups)]
        downs = [w for w in sorted(debts) if debts[w] <= 0 and w != u]
        v = downs[j % len(downs)]
        total = sum(d for d in debts.values() if d > 0)
        if edge + step <= total:
            return
        eng = self.led.engine
        width = eng._sums.itemsize
        self.led.insert_arc(u, v, edge + step - total)
        assert eng._sums.itemsize == width_after(eng, width)
        width = eng._sums.itemsize
        self.led.remove_arc(u, v)
        assert sum(d for d in self.led.debts.values() if d > 0) <= total
        assert eng._sums.itemsize == width_after(eng, width)

    @precondition(two_live)
    @rule(i=st.integers(0, 63), j=st.integers(0, 63))
    def remove_arc(self, i, j):
        u, v = self.pick(i), self.pick(j)
        if u == v:
            before = engine_digest(self.led.engine)
            with pytest.raises(LoopError):
                self.led.remove_arc(u, v)
            assert engine_digest(self.led.engine) == before
            return
        debts = self.led.debts
        self.led.remove_arc(u, v)
        if debts[u] * debts[v] < 0:
            assert 0 in (self.led.debts[u], self.led.debts[v])
        else:
            assert self.led.debts == debts

    @precondition(lambda self: self.led.live_nodes)
    @rule(i=st.integers(0, 63))
    def remove_node(self, i):
        u = self.pick(i)
        debts = self.led.debts
        best = len(self.led.query())
        txns = self.led.remove_node(u)
        assert u not in self.led.live_nodes
        if debts[u] == 0:
            assert txns == []
            return
        group = {t.sender for t in txns} | {t.receiver for t in txns}
        assert u in group
        assert sum(debts[w] for w in group) == 0
        assert plan_settles({w: debts[w] for w in group}, TransactionPlan(txns))
        assert all(self.led.debts[w] == 0 for w in group - {u})
        assert len(txns) + len(self.led.query()) == best

    @rule()
    def query(self):
        before = engine_digest(self.led.engine)
        plan = self.led.query()
        assert plan_settles(self.led.debts, plan)
        assert engine_digest(self.led.engine) == before

    @invariant()
    def table_and_plan_are_exact(self):
        eng = self.led.engine
        k = eng.vstar_size
        assert audit_sums(eng)
        assert eng.live_mask == (1 << k) - 1
        debts = eng.balances()
        # every subset sum lies between the two totals, and a rewrite from
        # slot 0 takes the narrowest width that holds them
        width = np.iinfo(eng._sums.dtype)
        assert width.min <= sum(d for d in debts.values() if d < 0)
        assert sum(d for d in debts.values() if d > 0) <= width.max
        if from_slot_0(eng):
            assert eng._sums.itemsize == narrowest(debts)
        # the kept zero mask is never stale; checked before the query
        # below fills it again, so every rule starts with a kept mask
        scan = eng._sums[: 1 << k] == 0
        assert np.array_equal(eng.zero_mask(), scan)
        assert eng.zero_mask() is eng.zero_mask()
        assert np.array_equal(eng.zero_sets(), np.flatnonzero(scan)[1:])
        size = len(self.led.query())
        assert size == optimum(debts)
        if k <= ORACLE_K:
            assert size == oracle_max_zero_partition(debts).min_transactions


TestLedgerMachine = LedgerMachine.TestCase
TestLedgerMachine.settings = settings(max_examples=60, stateful_step_count=80, deadline=None)

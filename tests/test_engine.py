import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debtclear import (
    AmountError,
    CapacityError,
    LoopError,
    MoneyOverflowError,
    SplitMix64,
    StaleMaskError,
)
from debtclear import bits, engine as engine_mod
from debtclear.engine import SubsetSumEngine

from _support import (
    EXAMPLE1,
    EXAMPLE1_BALANCES,
    audit_sums,
    brute_zero_node_sets,
    engine_digest,
    mask_of_nodes,
    nodes_of_mask,
)


# ---- slot allocation ---------------------------------------------------


def test_first_allocation_takes_slot_zero():
    eng = SubsetSumEngine()
    eng.apply_arc_delta(7, 8, 1)
    assert eng.slot_of(7) == 0
    assert eng.live_mask == 0b11


def test_freed_slot_is_reused():
    eng = SubsetSumEngine()
    eng.apply_arc_delta(1, 2, 5)  # node 1 -> slot 0, node 2 -> slot 1
    # node 2 leaves the top slot before node 4 enters, so node 4 takes slot k = 1
    eng.apply_arc_delta(2, 4, 5)
    assert eng.slot_of(2) is None
    assert eng.node_slots() == (1, 4)
    eng.apply_arc_delta(9, 4, 1)
    assert eng.slot_of(9) == 2  # an entering node takes slot k

    eng = SubsetSumEngine()
    eng.rebuild_from_debts({1: 3, 2: 5, 3: -3, 4: -5, 5: 7, 6: -7})  # slots 0..5
    eng.apply_arc_delta(3, 2, 5)  # node 2 leaves slot 1 to node 6 from the top slot
    assert eng.node_slots() == (1, 6, 3, 4, 5)
    assert audit_sums(eng)
    eng.apply_arc_delta(4, 1, 5)  # node 4 leaves slot 3 to node 5 from the top slot
    assert eng.node_slots() == (1, 6, 3, 5)
    eng.apply_arc_delta(3, 5, 7)  # node 5 leaves the top slot: nothing moves
    assert eng.node_slots() == (1, 6, 3)
    assert eng.last_touched_sums == 2**3 - 2**2  # from node 3's slot 2 up
    eng.apply_arc_delta(7, 1, 1)
    assert eng.node_slots() == (1, 6, 3, 7)
    assert eng.live_mask == 0b1111
    assert audit_sums(eng)


def test_capacity_error_leaves_state_unchanged(monkeypatch):
    monkeypatch.setattr(bits, "SLOTS_MAX", 2)
    eng = SubsetSumEngine()
    eng.apply_arc_delta(1, 2, 7)
    before = engine_digest(eng)
    with pytest.raises(CapacityError):
        eng.apply_arc_delta(3, 4, 1)
    assert engine_digest(eng) == before


def test_capacity_counts_an_endpoint_that_settles(monkeypatch):
    monkeypatch.setattr(bits, "SLOTS_MAX", 2)
    eng = SubsetSumEngine()
    eng.apply_arc_delta(1, 2, 5)
    eng.apply_arc_delta(3, 1, 5)  # node 1 settles as node 3 enters: still two slots
    assert eng.balances() == {2: -5, 3: 5}
    assert audit_sums(eng)
    before = engine_digest(eng)
    with pytest.raises(CapacityError):
        eng.apply_arc_delta(4, 2, 1)  # node 2 stays open: a third slot
    assert engine_digest(eng) == before


# ---- apply_arc_delta ----------------------------------------------------


def test_apply_single_arc_sums():
    eng = SubsetSumEngine()
    eng.apply_arc_delta(1, 2, 5)
    assert eng.debt(1) == 5 and eng.debt(2) == -5
    assert eng.subset_sum(0b01) == 5
    assert eng.subset_sum(0b10) == -5
    assert eng.subset_sum(0b11) == 0


def test_apply_exact_cancellation_empties_vstar():
    eng = SubsetSumEngine()
    eng.apply_arc_delta(1, 2, 5)
    eng.apply_arc_delta(2, 1, 5)
    assert eng.live_mask == 0
    assert eng.debt(1) == 0 and eng.debt(2) == 0


def test_apply_example_replay():
    eng = SubsetSumEngine()
    for i, b in enumerate(EXAMPLE1):
        eng.apply_arc_delta(b.borrower, b.lender, b.amount)
        if i == 2:
            assert eng.slot_of(3) is None  # node 3 cancels out after arc 3
    assert {u: eng.debt(u) for u in (1, 2, 3, 4, 5)} == EXAMPLE1_BALANCES
    assert eng.slot_of(3) is None
    assert audit_sums(eng)


def test_apply_validation():
    eng = SubsetSumEngine()
    with pytest.raises(LoopError):
        eng.apply_arc_delta(1, 1, 5)
    with pytest.raises(AmountError):
        eng.apply_arc_delta(1, 2, 0)
    with pytest.raises(AmountError):
        eng.apply_arc_delta(1, 2, -3)
    eng.apply_arc_delta(1, 2, 4)
    before = engine_digest(eng)
    for x in (2.5, np.int64(5)):
        with pytest.raises(AmountError):
            eng.apply_arc_delta(1, 3, x)
        assert engine_digest(eng) == before


def test_apply_overflow_guard():
    eng = SubsetSumEngine()
    eng.apply_arc_delta(1, 2, 2**62 - 1)
    eng.apply_arc_delta(3, 4, 2**62 - 1)
    before = engine_digest(eng)
    with pytest.raises(MoneyOverflowError):
        eng.apply_arc_delta(5, 6, 2**62)
    assert engine_digest(eng) == before


def test_rebuild_overflow_guard():
    eng = SubsetSumEngine()
    eng.apply_arc_delta(1, 2, 5)
    before = engine_digest(eng)
    with pytest.raises(MoneyOverflowError):
        eng.rebuild_from_debts({0: -(2**62), 1: -(2**62), 2: -1})
    assert engine_digest(eng) == before


@pytest.mark.parametrize(
    "debts",
    [
        {0: 2.5, 1: -2.5},
        {0: np.int64(2**62), 1: np.int64(2**62), 2: -(2**63)},
        {0: 3, 1: -3, 2: 0.0},
    ],
)
def test_rebuild_rejects_non_int_balances(debts):
    eng = SubsetSumEngine()
    eng.apply_arc_delta(1, 2, 5)
    before = engine_digest(eng)
    with pytest.raises(AmountError):
        eng.rebuild_from_debts(debts)
    assert engine_digest(eng) == before


def test_table_budget_boundary(monkeypatch):
    monkeypatch.setattr(bits, "SLOTS_MAX", 3)
    eng = SubsetSumEngine()
    eng.apply_arc_delta(10, 11, 2)
    eng.apply_arc_delta(11, 12, 1)
    assert eng.node_slots() == (10, 11, 12)
    before = engine_digest(eng)
    with pytest.raises(CapacityError):
        eng.apply_arc_delta(13, 14, 1)  # both fresh: five slots
    with pytest.raises(CapacityError):
        eng.apply_arc_delta(13, 10, 1)  # one fresh: four slots
    assert engine_digest(eng) == before
    eng.apply_arc_delta(13, 10, 2)  # node 10 settles as 13 enters: still three
    assert eng.node_slots() == (12, 11, 13)
    assert audit_sums(eng)
    before = engine_digest(eng)
    with pytest.raises(CapacityError):
        eng.rebuild_from_debts({1: 1, 2: 1, 3: 1, 4: -3})
    assert engine_digest(eng) == before
    eng.rebuild_from_debts({1: 1, 2: 1, 3: -2, 4: 0})
    assert eng.vstar_size == 3 and audit_sums(eng)


def test_default_budget_refuses_a_25th_balance():
    # refused before anything is allocated, so no 256 MiB table is built
    eng = SubsetSumEngine()
    eng.apply_arc_delta(1, 2, 5)
    before = engine_digest(eng)
    with pytest.raises(CapacityError):
        eng.rebuild_from_debts({u: 1 for u in range(24)} | {24: -24})
    assert engine_digest(eng) == before


# ---- table width ---------------------------------------------------------

I8, I16, I32 = 2**7, 2**15, 2**31


@pytest.mark.parametrize(
    "balances, dtype",
    [
        ({0: I16 - 1}, np.int16),
        ({0: I16}, np.int32),
        ({0: -I16}, np.int16),
        ({0: -I16 - 1}, np.int32),
        ({0: I32 - 1}, np.int32),
        ({0: I32}, np.int64),
        ({0: -I32}, np.int32),
        ({0: -I32 - 1}, np.int64),
        # the totals, not the single balances, pick the width
        ({0: 20000, 1: I16 - 1 - 20000, 2: -I16}, np.int16),
        ({0: 20000, 1: I16 - 20000, 2: -5}, np.int32),
        ({0: 5, 1: -I32 + 5, 2: -5}, np.int32),
        ({0: 5, 1: -I32 + 5, 2: -6}, np.int64),
        ({0: I8 - 1}, np.int8),
        ({0: I8}, np.int16),
        ({0: -I8}, np.int8),
        ({0: -I8 - 1}, np.int16),
        ({0: 100, 1: I8 - 1 - 100, 2: -I8}, np.int8),
        ({0: 100, 1: I8 - 100, 2: -5}, np.int16),
    ],
)
def test_width_edges(balances, dtype):
    eng = SubsetSumEngine()
    eng.rebuild_from_debts(balances)
    assert eng._sums.dtype == dtype and audit_sums(eng)
    assert eng.subset_sum(eng.live_mask) == sum(balances.values())
    assert eng.table_bytes == np.dtype(dtype).itemsize << len(balances)


@pytest.mark.parametrize(
    "balances, table_bytes",
    [
        ({0: I8 - 1, 1: -I8}, 4),  # 2^2 entries of one byte
        ({0: I8, 1: -I8}, 8),
        ({0: I16 - 1, 1: -I16}, 8),
        ({0: I16, 1: -I16}, 16),
        ({0: I32 - 1, 1: -I32}, 16),
        ({0: I32, 1: -I32}, 32),
        ({0: 2**63 - 1, 1: -(2**63)}, 32),
        ({}, 1),  # the empty set's sum alone
    ],
)
def test_table_bytes_count_the_live_table_at_its_width(balances, table_bytes):
    eng = SubsetSumEngine()
    eng.rebuild_from_debts(balances)
    assert eng.table_bytes == table_bytes == eng._sums.nbytes


def test_arcs_widen_the_table_and_rebuild_narrows_it():
    # (arc, width after it, entries written: 2^k - 1 on each widening)
    steps = [
        ((1, 2, 30000), np.int16, 2**2 - 2**0),
        ((3, 4, I16 - 1 - 30000), np.int16, 2**4 - 2**2),
        ((1, 5, 1), np.int32, 2**5 - 1),  # positive total 2^15
        ((6, 7, I32 - 1 - I16), np.int32, 2**7 - 2**5),
        ((6, 8, 1), np.int64, 2**8 - 1),  # node 6 holds slot 5, yet all is rewritten
        ((7, 6, I32 - 1 - I16), np.int64, 2**7 - 2**5),  # from slot 5: keeps int64
    ]
    eng = SubsetSumEngine()
    for (u, v, x), dtype, touched in steps:
        eng.apply_arc_delta(u, v, x)
        assert eng._sums.dtype == dtype and audit_sums(eng)
        assert eng.last_touched_sums == touched
    eng.rebuild_from_debts(eng.balances())  # positive total 2^15
    assert eng._sums.dtype == np.int32 and audit_sums(eng)
    eng.apply_arc_delta(2, 1, 2)  # positive total 2^15 - 1
    eng.rebuild_from_debts(eng.balances())
    assert eng._sums.dtype == np.int16 and audit_sums(eng)


@pytest.mark.parametrize(
    "start, arc, error, slots",
    [
        (5, (3, 4, 2**63 - 1), MoneyOverflowError, None),
        (I16, (3, 4, 2**63 - 1), MoneyOverflowError, None),
        (I32, (3, 4, 2**63 - I32), MoneyOverflowError, None),
        (5, (3, 4, I16), CapacityError, 2),
        (I16, (3, 4, I32), CapacityError, 2),
    ],
)
def test_refused_arc_keeps_the_width(monkeypatch, start, arc, error, slots):
    eng = SubsetSumEngine()
    eng.apply_arc_delta(1, 2, start)
    if slots is not None:
        monkeypatch.setattr(bits, "SLOTS_MAX", slots)
    dtype, before = eng._sums.dtype, engine_digest(eng)
    with pytest.raises(error):
        eng.apply_arc_delta(*arc)
    assert eng._sums.dtype == dtype and engine_digest(eng) == before


def test_python_ints_keep_a_narrow_table_narrow():
    # the refresh adds Python-int balances into int8, int16 and int32
    # tables; numpy 2's weak scalars (NEP 50) keep the table's width, where
    # older numpy promoted by value
    for dtype, edge in ((np.int8, I8), (np.int16, I16)):
        t = np.zeros(4, dtype=dtype)
        np.add(t[:2], -edge, out=t[2:])
        assert t.dtype == dtype and t.tolist() == [0, 0, -edge, -edge]
        assert (t[:2] + (edge - 1)).dtype == dtype
        with pytest.raises(OverflowError):
            t + edge
        with pytest.raises(OverflowError):
            t + (-edge - 1)


def test_a_refresh_from_slot_0_narrows_the_table():
    # (arc, width after it, entries written: 2^k - 1 on each rewrite from slot 0)
    steps = [
        ((1, 2, 100), np.int8, 2**2 - 1),
        ((3, 4, 200), np.int16, 2**4 - 1),  # widens, so from slot 0
        ((4, 3, 180), np.int16, 2**4 - 2**2),  # totals fit int8 again; slot 2 up
        ((2, 1, 50), np.int8, 2**4 - 1),  # node 1 holds slot 0: narrows
        ((5, 6, I16), np.int32, 2**6 - 1),
        ((6, 5, I16), np.int32, 2**4 - 2**4),  # the top two slots are freed
        ((1, 3, 1), np.int8, 2**4 - 1),
    ]
    eng = SubsetSumEngine()
    for (u, v, x), dtype, touched in steps:
        eng.apply_arc_delta(u, v, x)
        assert eng._sums.dtype == dtype and audit_sums(eng)
        assert eng.last_touched_sums == touched


def test_a_departure_from_slot_0_narrows_the_table():
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({1: 5, 2: -5, 3: I8, 4: -I8})
    eng.clear_block(0b1100)  # the top two slots: writes nothing, keeps int16
    assert eng._sums.dtype == np.int16 and eng.last_touched_sums == 0
    eng.rebuild_from_debts({1: I8, 2: -I8, 3: 5, 4: -5})
    eng.clear_block(0b0011)  # from slot 0
    assert eng._sums.dtype == np.int8 and eng.last_touched_sums == 2**2 - 1
    assert audit_sums(eng)


def test_a_width_change_reuses_the_buffer():
    # the buffer grows to the widest table yet and is viewed at any width
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({u: (-1) ** u * I16 for u in range(8)})
    wide = eng._sums
    assert wide.dtype == np.int32 and eng.table_bytes == 4 << 8
    eng.rebuild_from_debts({u: (-1) ** u for u in range(8)})
    assert eng._sums.dtype == np.int8 and np.shares_memory(eng._sums, wide)
    eng.apply_arc_delta(0, 1, I16)  # slot 0: a wider table in the same bytes
    assert eng._sums.dtype == np.int32 and np.shares_memory(eng._sums, wide)
    assert audit_sums(eng)


def junk_table(nbytes):
    # 0x9c reads as -100 in int8 and is nonzero at every wider width
    return np.full(nbytes, 0x9C, dtype=np.uint8)


def replay_on_junk_tables(ops):
    # every new table is filled with junk; the engine must overwrite
    # whatever it reads
    engine_mod._new_table, saved = junk_table, engine_mod._new_table
    try:
        eng = SubsetSumEngine()
        for u, v, x in ops:
            if u != v:
                eng.apply_arc_delta(u, v, x)
                assert audit_sums(eng)
        eng.rebuild_from_debts(eng.balances())
        assert audit_sums(eng)
    finally:
        engine_mod._new_table = saved


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 9)), max_size=30))
def test_reused_tables_leave_no_stale_sums(ops):
    replay_on_junk_tables(ops)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.sampled_from([1, 9, 60, I8, 300])),
        max_size=30,
    )
)
def test_reused_tables_leave_no_stale_sums_across_widths(ops):
    # amounts around the int8 edge switch the width back and forth, and
    # each switch views the same bytes at another width
    replay_on_junk_tables(ops)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13), st.integers(1, 9)), max_size=30))
def test_reused_tables_leave_no_stale_sums_in_pattern_rows(ops):
    # 13 arcs into node 13 open all 14 slots first, so the random arcs
    # refresh tables of k >= 10, grown into junk tables
    replay_on_junk_tables([(u, 13, u + 1) for u in range(13)] + ops)


def test_apply_touch_count_bound():
    # one refresh from the lowest slot j0 whose balance or node changed
    # writes 2^k - 2^j0 sums, k being the live slots after the call
    eng = SubsetSumEngine()
    for u in (1, 3, 5):
        eng.apply_arc_delta(u, u + 1, 10)  # node u takes slot u - 1, node u + 1 slot u
    k = eng.vstar_size
    assert k == 6
    # both endpoints stay live, the lower in slot 2
    eng.apply_arc_delta(3, 6, 1)
    assert eng.last_touched_sums == 2**k - 2**2
    # an arc between the two top slots
    eng.apply_arc_delta(5, 6, 1)
    assert eng.last_touched_sums == 2**k - 2 ** (k - 2)
    # a fresh endpoint enters slot k; the other holds slot 1
    eng.apply_arc_delta(7, 2, 1)
    k = eng.vstar_size
    assert eng.slot_of(7) == k - 1
    assert eng.last_touched_sums == 2**k - 2**1
    # a departing endpoint hands slot 0 to the top slot's node
    eng.apply_arc_delta(2, 1, 10)  # node 1 cancels: node 7 moves from slot 6 to slot 0
    k = eng.vstar_size
    assert eng.slot_of(7) == 0
    assert eng.last_touched_sums == 2**k - 2**0
    # the top slot's node departs, moving nothing; the other holds slot 3
    eng.apply_arc_delta(6, 4, 12)
    k = eng.vstar_size
    assert eng.node_slots() == (7, 2, 3, 4, 5)
    assert eng.last_touched_sums == 2**k - 2**3
    # a move into slot 2, then a fresh endpoint at the top
    eng.apply_arc_delta(8, 3, 11)  # node 3 cancels, node 8 enters
    k = eng.vstar_size
    assert eng.node_slots() == (7, 2, 5, 4, 8)
    assert eng.last_touched_sums == 2**k - 2**2
    assert audit_sums(eng)
    # freeing the top block moves no node and writes nothing
    eng.clear_block(0b11100)
    assert eng.node_slots() == (7, 2)
    assert eng.last_touched_sums == 0
    assert audit_sums(eng)


@pytest.mark.parametrize("k", [10, 11, 12])
def test_patch_counts_for_every_slot_pair(k):
    # node i holds slot i; for every ordered slot pair, each arc writes
    # 2^k - 2^j0 sums, j0 the lowest slot whose balance or node changed
    debts = {i: 3 + i for i in range(k - 1)}
    debts[k - 1] = -sum(debts.values())
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            eng = SubsetSumEngine()
            eng.rebuild_from_debts(debts)
            eng.apply_arc_delta(a, b, 1)  # both stay live
            assert eng.last_touched_sums == 2**k - 2 ** min(a, b) and audit_sums(eng)
            db = eng.debt(b)
            if db > 0:
                eng.apply_arc_delta(a, b, db)
            else:
                eng.apply_arc_delta(b, a, -db)
            # b's node settles, and the top slot's node moves into its slot
            # unless b was the top; a's node keeps slot a or, from the top,
            # moves into slot b
            assert eng.slot_of(b) is None and eng.vstar_size == k - 1
            assert eng.slot_of(a) == (b if a == k - 1 else a)
            assert eng.last_touched_sums == 2 ** (k - 1) - 2 ** min(a, b) and audit_sums(eng)
            eng.apply_arc_delta(k, a, 1)  # a fresh node enters the top slot
            assert eng.slot_of(k) == k - 1
            assert eng.last_touched_sums == 2**k - 2 ** eng.slot_of(a) and audit_sums(eng)


# ---- rebuild_from_debts ---------------------------------------------------


def test_rebuild_all_zero():
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({1: 0, 2: 0})
    assert eng.live_mask == 0
    assert eng.subset_sum(0) == 0
    assert len(eng.zero_sets()) == 0


def test_rebuild_example_final_state():
    eng = SubsetSumEngine()
    eng.rebuild_from_debts(EXAMPLE1_BALANCES)
    # slots in ascending node order: 1->0, 2->1, 4->2, 5->3
    assert eng.node_slots() == (1, 2, 4, 5)
    assert eng.subset_sum(0b1001) == 0  # {1, 5}
    assert eng.subset_sum(0b0110) == 0  # {2, 4}
    assert eng.subset_sum(0b1111) == 0


def test_rebuild_dense_array_values():
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({1: 2, 2: 2, 3: -4})
    got = [eng.subset_sum(m) for m in range(8)]
    assert got == [0, 2, 2, 4, -4, -2, -2, 0]


def test_rebuild_capacity_check(monkeypatch):
    monkeypatch.setattr(bits, "SLOTS_MAX", 2)
    eng = SubsetSumEngine()
    with pytest.raises(CapacityError):
        eng.rebuild_from_debts({1: 1, 2: 1, 3: -2})
    with pytest.raises(CapacityError):  # the slot bound is checked before the range
        eng.rebuild_from_debts({1: 2**62, 2: 2**62, 3: -1})


# ---- zero_sets / subset_sum -------------------------------------------------


def test_zero_sets_example():
    eng = SubsetSumEngine()
    eng.rebuild_from_debts(EXAMPLE1_BALANCES)
    assert list(eng.zero_sets()) == [0b0110, 0b1001, 0b1111]


def test_clear_block_of_every_slot_moves_nothing():
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({1: 4, 2: -1, 3: -1, 4: -1, 5: -1})
    eng.apply_arc_delta(1, 2, 1)
    before = engine_digest(eng)
    eng.clear_block(0)
    assert eng.last_touched_sums == 0 and engine_digest(eng) == before
    eng.clear_block(eng.live_mask)  # highest first: each freed slot is the top
    assert eng.last_touched_sums == 0
    assert eng.live_mask == 0 and eng.balances() == {}


def test_zero_sets_singleton_is_empty():
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({4: 9, 9: -9})
    eng.clear_block(0b10)  # leave one nonzero node
    assert eng.live_mask == 0b01
    assert list(eng.zero_sets()) == []


def test_zero_sets_triple():
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({1: 2, 2: 2, 3: -4})
    assert list(eng.zero_sets()) == [0b111]


# ---- the zero mask: one scan per table state ----------------------------------


def read_zero_mask(eng):
    """Read both zero-set views and return the mask they share."""
    sets = eng.zero_sets()
    mask = eng._zero
    assert mask is not None
    assert eng.zero_mask() is mask  # the second read did not scan again
    assert np.array_equal(mask, eng._sums[: 1 << eng.vstar_size] == 0)
    assert np.array_equal(np.flatnonzero(mask)[1:], sets)
    return mask


def test_the_zero_mask_is_read_only():
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({1: 4, 2: -4, 5: 3})
    mask = eng.zero_mask()
    with pytest.raises(ValueError):
        mask[0b011] = False
    with pytest.raises(ValueError):
        mask[0b101] = True
    assert eng.zero_mask() is mask
    assert list(eng.zero_sets()) == [0b011]


@pytest.mark.parametrize(
    "arc, error, slots",
    [
        ((1, 1, 5), LoopError, None),
        ((1, 3, 0), AmountError, None),
        ((1, 3, 2.5), AmountError, None),
        ((3, 4, 2**63 - 1), MoneyOverflowError, None),
        ((3, 4, 1), CapacityError, 3),
    ],
)
def test_refused_arc_keeps_the_zero_mask(monkeypatch, arc, error, slots):
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({1: 4, 2: -4, 5: 3, 6: -3})
    mask = read_zero_mask(eng)
    if slots is not None:
        monkeypatch.setattr(bits, "SLOTS_MAX", slots)
    with pytest.raises(error):
        eng.apply_arc_delta(*arc)
    assert eng._zero is mask
    assert list(eng.zero_sets()) == [0b0011, 0b1100, 0b1111]


@pytest.mark.parametrize(
    "write",
    [
        lambda eng: eng.apply_arc_delta(2, 1, 4),  # settles nodes 1 and 2
        lambda eng: eng.clear_block(0b0011),  # the same, as a block
        lambda eng: eng.rebuild_from_debts({1: 1, 2: -1}),
    ],
)
def test_writes_drop_the_zero_mask(write):
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({1: 4, 2: -4, 5: 3, 6: -3})
    read_zero_mask(eng)
    write(eng)
    assert eng._zero is None and audit_sums(eng)
    # two balances remain: the old mask would also hold 0b1100 and 0b1111
    assert list(eng.zero_sets()) == [0b11]
    read_zero_mask(eng)


def test_concurrent_reads_fill_the_zero_mask_alike():
    # readers of a frozen engine may race to fill the zero mask; filling it
    # is idempotent, so each returns the scan of the one table state.
    # Before each round two writes drop the mask and restore the balances
    # (both endpoints stay nonzero, so no slot moves)
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({u: (u % 5 + 2) * (-1) ** u for u in range(9)} | {9: -6})
    want_mask = eng._sums[: 1 << eng.vstar_size] == 0
    want_sets = np.flatnonzero(want_mask)[1:]
    assert len(want_sets) > 1
    rounds, readers = 100, 4
    start = threading.Barrier(readers + 1, timeout=10)
    done = threading.Barrier(readers + 1, timeout=10)
    wrong = []

    def read(i):
        for _ in range(rounds):
            start.wait()
            if i % 2:
                ok = np.array_equal(eng.zero_sets(), want_sets)
            else:
                ok = np.array_equal(eng.zero_mask(), want_mask)
            if not ok:
                wrong.append(i)
            done.wait()

    threads = [threading.Thread(target=read, args=(i,)) for i in range(readers)]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for _ in range(rounds):
            eng.apply_arc_delta(0, 1, 1)
            eng.apply_arc_delta(1, 0, 1)
            assert eng._zero is None
            start.wait()
            done.wait()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert not wrong and audit_sums(eng)


def test_subset_sum_reads():
    eng = SubsetSumEngine()
    eng.rebuild_from_debts(EXAMPLE1_BALANCES)
    assert eng.subset_sum(0) == 0
    assert eng.subset_sum(0b1001) == 0
    assert eng.subset_sum(0b0011) == 5  # {1, 2} = 10 - 5


def test_subset_sum_stale_mask_rejected():
    eng = SubsetSumEngine()
    eng.apply_arc_delta(1, 2, 5)
    eng.apply_arc_delta(2, 1, 5)
    with pytest.raises(StaleMaskError):
        eng.subset_sum(0b01)


# ---- whole-state properties ---------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 9)), max_size=25))
def test_ground_truth_after_any_sequence(ops):
    eng = SubsetSumEngine()
    for u, v, x in ops:
        if u == v:
            continue
        eng.apply_arc_delta(u, v, x)
    assert audit_sums(eng)
    assert eng.subset_sum(eng.live_mask) == 0
    assert eng.live_mask == (1 << eng.vstar_size) - 1
    # both views read one mask, so each is also checked against enumeration
    brute = sorted(mask_of_nodes(eng, nodes) for nodes in brute_zero_node_sets(eng.balances()))
    assert eng.zero_sets().tolist() == brute
    want = np.zeros(1 << eng.vstar_size, dtype=bool)
    want[[0] + brute] = True  # the empty set too
    assert np.array_equal(eng.zero_mask(), want)
    assert eng.zero_mask() is eng.zero_mask()
    assert None not in eng.node_slots()
    # a node holds a slot iff its balance is nonzero
    balances = eng.balances()
    assert all(d != 0 for d in balances.values())
    assert eng.live_mask.bit_count() == len(balances)
    assert {eng.slot_of(u) for u in balances} == {
        i for i in range(eng.live_mask.bit_length()) if eng.live_mask >> i & 1
    }


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 9)), max_size=30))
def test_incremental_agrees_with_rebuild(ops):
    eng = SubsetSumEngine()
    for u, v, x in ops:
        if u == v:
            continue
        eng.apply_arc_delta(u, v, x)
    batch = SubsetSumEngine()
    batch.rebuild_from_debts(eng.balances())
    live_nodes = [u for u in eng.balances()]
    for mask in range(1 << len(live_nodes)):
        nodes = [live_nodes[i] for i in range(len(live_nodes)) if mask >> i & 1]
        assert eng.subset_sum(mask_of_nodes(eng, nodes)) == batch.subset_sum(
            mask_of_nodes(batch, nodes)
        )


def test_zero_sets_match_enumeration_after_random_ops():
    rng = SplitMix64(2024)
    eng = SubsetSumEngine()
    for _ in range(60):
        u = rng.randint(0, 7)
        v = rng.randint(0, 6)
        if v >= u:
            v += 1
        eng.apply_arc_delta(u, v, rng.randint(1, 9))
        zs = eng.zero_sets()
        assert zs.dtype == np.int64 and np.all(np.diff(zs) > 0)
        got = {nodes_of_mask(eng, m) for m in zs.tolist()}
        assert got == brute_zero_node_sets(eng.balances())

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


def replay(arcs, capacity=24):
    eng = SubsetSumEngine(capacity)
    for b in arcs:
        eng.apply_arc_delta(b.borrower, b.lender, b.amount)
    return eng


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
    assert eng.last_touched_sums == 2 ** (3 - 1)  # only node 3's half-sweep
    eng.apply_arc_delta(7, 1, 1)
    assert eng.node_slots() == (1, 6, 3, 7)
    assert eng.live_mask == 0b1111
    assert audit_sums(eng)


def test_capacity_boundary():
    eng = SubsetSumEngine(capacity=3)
    eng.apply_arc_delta(10, 11, 2)
    eng.apply_arc_delta(11, 12, 1)
    assert eng.vstar_size == 3
    with pytest.raises(CapacityError):
        eng.apply_arc_delta(13, 10, 1)


def test_capacity_constructor_bounds():
    SubsetSumEngine(capacity=63)  # max mask width; array grows lazily
    with pytest.raises(CapacityError):
        SubsetSumEngine(capacity=64)
    with pytest.raises(CapacityError):
        SubsetSumEngine(capacity=0)


def test_wide_capacity_engine_still_exact():
    eng = SubsetSumEngine(capacity=63)
    for u in range(5):
        eng.apply_arc_delta(u, u + 5, 3 + u)
    assert audit_sums(eng)


def test_capacity_error_leaves_state_unchanged():
    eng = SubsetSumEngine(capacity=2)
    eng.apply_arc_delta(1, 2, 7)
    before = engine_digest(eng)
    with pytest.raises(CapacityError):
        eng.apply_arc_delta(3, 4, 1)
    assert engine_digest(eng) == before


def test_capacity_counts_an_endpoint_that_settles():
    eng = SubsetSumEngine(capacity=2)
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
    monkeypatch.setattr(bits, "TABLE_BYTES_MAX", 8 << 3)  # three slots of sums
    eng = SubsetSumEngine(capacity=63)
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


def test_dropped_and_replaced_tables_are_reused(monkeypatch):
    monkeypatch.setattr(engine_mod, "_spare", {})
    eng = SubsetSumEngine()
    eng.apply_arc_delta(0, 1, 1)  # two slots: the table doubles twice
    assert engine_mod._spare == {}  # outgrown tables go back to the allocator
    table = eng._sums
    del eng
    other = SubsetSumEngine()
    other.apply_arc_delta(5, 6, 1)  # doubles into the dropped engine's table
    assert other._sums is table and audit_sums(other)
    other.rebuild_from_debts({1: 1, 2: 2, 3: -3})  # 8 entries replace the 4
    assert engine_mod._spare[4] is table and audit_sums(other)


def test_spare_tables_are_capped(monkeypatch):
    monkeypatch.setattr(engine_mod, "_spare", {})
    monkeypatch.setattr(engine_mod, "SPARE_LEN_MAX", 4)
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({0: 1, 1: -1})  # 4 entries replace the initial 1
    eng.rebuild_from_debts({0: 1, 1: 2, 2: -3})  # 8 entries replace the 4
    del eng  # its 8-entry table is over the cap
    assert sorted(engine_mod._spare) == [1, 4]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 9)), max_size=30))
def test_reused_tables_leave_no_stale_sums(ops):
    # every spare table is filled with junk; the engine must overwrite
    # whatever it reads
    spare = {1 << j: np.full(1 << j, -12345, dtype=np.int64) for j in range(10)}
    engine_mod._spare, saved = spare, engine_mod._spare
    try:
        eng = SubsetSumEngine()
        for u, v, x in ops:
            if u != v:
                eng.apply_arc_delta(u, v, x)
                assert audit_sums(eng)
        eng.rebuild_from_debts(eng.balances())
        assert audit_sums(eng)
    finally:
        engine_mod._spare = saved


def test_apply_touch_count_bound():
    eng = SubsetSumEngine()
    for u in (1, 3, 5):
        eng.apply_arc_delta(u, u + 1, 10)
    k = eng.vstar_size
    assert k == 6
    # both endpoints stay live and neither is fresh: two half-sweeps
    eng.apply_arc_delta(1, 2, 1)
    assert eng.last_touched_sums == 2 * 2 ** (k - 2)
    # fresh endpoint adds the both-contained sweep, still within 3 * 2^(k-2)
    eng.apply_arc_delta(7, 2, 1)
    k = eng.vstar_size
    assert eng.last_touched_sums <= 3 * 2 ** (k - 2)
    # a departing endpoint hands its slot to the top slot's node, moving
    # 2^(K-2) entries, K the larger of k before and after
    K = eng.vstar_size
    eng.apply_arc_delta(2, 1, 11)  # node 1 cancels: node 7 moves from slot 6 to slot 0
    assert eng.slot_of(7) == 0
    assert eng.last_touched_sums == 2 * 2 ** (K - 2)
    # a move, then a fresh endpoint at the top: exactly the bound
    K = eng.vstar_size
    eng.apply_arc_delta(8, 7, 1)  # node 7 cancels, node 8 enters
    assert eng.slot_of(8) == K - 1
    assert eng.last_touched_sums == 3 * 2 ** (K - 2)
    assert audit_sums(eng)


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


def test_rebuild_capacity_check():
    eng = SubsetSumEngine(capacity=2)
    with pytest.raises(CapacityError):
        eng.rebuild_from_debts({1: 1, 2: 1, 3: -2})


# ---- zero_sets / subset_sum -------------------------------------------------


def test_zero_sets_example():
    eng = SubsetSumEngine()
    eng.rebuild_from_debts(EXAMPLE1_BALANCES)
    assert list(eng.zero_sets()) == [0b0110, 0b1001, 0b1111]


def test_clear_block_of_every_slot_moves_nothing():
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({1: 4, 2: -1, 3: -1, 4: -1, 5: -1})
    eng.apply_arc_delta(1, 2, 1)
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
    packed = bits.pack_masks(eng.zero_sets().masks, eng.vstar_size)
    assert np.array_equal(eng.zero_bits(), packed)
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
        assert np.all(np.diff(zs.masks) > 0)
        got = {nodes_of_mask(eng, m) for m in zs}
        assert got == brute_zero_node_sets(eng.balances())

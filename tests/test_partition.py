from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debtclear import (
    CapacityError,
    CaseSpec,
    ContractError,
    Transaction,
    balances_of,
    clear_non_atomic,
    generate_case,
    max_partition,
    min_removal_set,
    oracle_max_zero_partition,
    settle_part,
)
from debtclear import bits, partition
from debtclear.engine import SubsetSumEngine

from _support import growth_balances, random_instance


def zsl(*masks):
    return np.array(masks, dtype=np.int64)


# ---- max_partition -----------------------------------------------------


def test_max_partition_worked_example():
    s0 = zsl(0b0110, 0b1001, 0b1111)
    res = max_partition(0b1111, s0, s0)
    assert res.part_count == 2
    assert res.parts == [0b0110, 0b1001]


def test_max_partition_single_triple():
    s0 = zsl(0b111)
    res = max_partition(0b111, s0, s0)
    assert res.part_count == 1
    assert res.parts == [0b111]


def test_max_partition_empty():
    res = max_partition(0, zsl(), zsl())
    assert res.part_count == 0 and res.parts == []


def test_max_partition_unpartitionable_is_contract_error():
    with pytest.raises(ContractError):
        max_partition(0b1, zsl(), zsl())


def test_max_partition_candidates_must_fit_live():
    s0 = zsl(0b111)
    with pytest.raises(ContractError):
        max_partition(0b11, s0, s0)


def test_max_partition_tie_breaks_to_smallest_mask():
    # two symmetric pairings of four slots; the smaller pair mask wins
    s0 = zsl(0b0011, 0b0110, 0b1001, 0b1100, 0b1111)
    res = max_partition(0b1111, s0, s0)
    assert res.parts == [0b0011, 0b1100]


def test_partition_covers_live_with_disjoint_zero_parts():
    for seed in range(25):
        n, arcs = random_instance(seed, max_n=9, max_m=18, max_w=5)
        eng = SubsetSumEngine()
        eng.rebuild_from_debts(balances_of(arcs))
        s0 = eng.zero_sets()
        res = max_partition(eng.live_mask, s0, s0)
        union = 0
        for p in res.parts:
            assert union & p == 0
            assert eng.subset_sum(p) == 0
            union |= p
        assert union == eng.live_mask


# ---- min_removal_set ---------------------------------------------------------


def remove_fixture():
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({1: 2, 2: 2, 3: -4, 4: 5, 5: -5})
    return eng


def test_min_removal_worked_example():
    eng = remove_fixture()
    # node 4 sits in slot 3; the only small zero-sum group covering it is {4,5}
    p = min_removal_set(eng.zero_mask(), eng.vstar_size, 3)
    assert p == 0b11000


def test_min_removal_pair_remainder():
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({1: 10, 5: -10})
    p = min_removal_set(eng.zero_mask(), eng.vstar_size, 0)
    assert p == 0b11


def test_min_removal_requires_live_slot():
    eng = remove_fixture()
    with pytest.raises(ContractError):
        min_removal_set(eng.zero_mask(), eng.vstar_size, 7)


@pytest.mark.parametrize("slot", [-1, -64, 2, 64])
def test_min_removal_refuses_a_slot_outside_the_live_mask(slot):
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({1: 2, 2: -2})
    with pytest.raises(ContractError):
        min_removal_set(eng.zero_mask(), 2, slot)


def test_min_removal_refuses_a_zero_array_of_another_length():
    # one bool per mask below 2^k, and nothing else
    with pytest.raises(ContractError):
        min_removal_set(np.zeros(1, bool), 10, 0)  # short
    with pytest.raises(ContractError):
        min_removal_set(np.zeros(1, bool), -1, 0)  # no length fits
    eng = remove_fixture()
    zero = eng.zero_mask()
    with pytest.raises(ContractError):
        min_removal_set(np.concatenate([zero, zero]), eng.vstar_size, 3)  # long
    with pytest.raises(ContractError):
        min_removal_set(zero[:0], eng.vstar_size, 3)  # empty
    with pytest.raises(ContractError):
        min_removal_set(zero.reshape(4, -1), eng.vstar_size, 3)  # not flat
    # the right length, not bool
    for other in (zero.astype(np.uint8), zero.astype(np.int8), zero.astype(np.int64)):
        with pytest.raises(ContractError):
            min_removal_set(other, eng.vstar_size, 3)
    with pytest.raises(ContractError):
        min_removal_set(bits.pack_flags(zero), eng.vstar_size, 3)  # packed words


def test_min_removal_leaves_the_zero_mask_as_it_was():
    for seed in range(10):
        n, arcs = random_instance(seed, max_n=9, max_m=18, max_w=5)
        eng = SubsetSumEngine()
        eng.rebuild_from_debts(balances_of(arcs))
        zero = eng.zero_mask()
        mine = zero.copy()  # writable, unlike the engine's
        for slot in range(eng.vstar_size):
            assert min_removal_set(mine, eng.vstar_size, slot) == min_removal_set(
                zero, eng.vstar_size, slot
            )
        assert eng.zero_mask() is zero
        assert np.array_equal(zero, eng._sums[: 1 << eng.vstar_size] == 0)
        assert np.array_equal(mine, zero)


def test_min_removal_satisfies_dp_identity():
    for seed in range(25):
        n, arcs = random_instance(seed, max_n=9, max_m=18, max_w=5)
        eng = SubsetSumEngine()
        eng.rebuild_from_debts(balances_of(arcs))
        live = eng.live_mask
        if live == 0:
            continue
        s0 = eng.zero_sets()
        full = max_partition(live, s0, s0).part_count
        for slot in range(live.bit_length()):
            if not live >> slot & 1:
                continue
            p = min_removal_set(eng.zero_mask(), eng.vstar_size, slot)
            assert p & (1 << slot)
            assert eng.subset_sum(p) == 0
            rest = live ^ p
            rest_s0 = s0[(s0 & p) == 0]
            rest_count = max_partition(rest, rest_s0, rest_s0).part_count if rest else 0
            assert full == rest_count + 1


def test_min_removal_prefers_smallest_cardinality():
    # slot 0 can leave inside a pair or inside the whole triple-joined mask
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({1: 1, 2: -1, 3: 1, 4: -1})
    p = min_removal_set(eng.zero_mask(), eng.vstar_size, 0)
    assert p == 0b0011  # pair beats any 4-element cover


@lru_cache(maxsize=None)
def oracle_parts(balances: tuple[int, ...]) -> int:
    return oracle_max_zero_partition(dict(enumerate(balances))).max_parts


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9).filter(bool), min_size=1, max_size=9), st.data())
def test_min_removal_matches_brute_force(vals, data):
    if sum(vals):
        vals = vals + [-sum(vals)]
    eng = SubsetSumEngine()
    eng.rebuild_from_debts(dict(enumerate(vals)))  # node i holds slot i
    k = len(vals)
    u = data.draw(st.integers(0, k - 1))
    full = oracle_parts(tuple(sorted(vals)))

    def keeps_rest_optimal(p):
        rest = tuple(sorted(vals[i] for i in range(k) if not p >> i & 1))
        return oracle_parts(rest) == full - 1

    groups = [
        p
        for p in range(1, 1 << k)
        if p >> u & 1
        and sum(vals[i] for i in range(k) if p >> i & 1) == 0
        and keeps_rest_optimal(p)
    ]
    expected = min(groups, key=lambda p: (p.bit_count(), p))
    assert min_removal_set(eng.zero_mask(), k, u) == expected


def test_min_removal_without_proper_zero_subset_is_live(monkeypatch):
    # no proper subset of {1, 2, -3} sums to zero, so no zero set avoids
    # the leaver: the early exit, with no closure and before the slot
    # bound of the level bitsets
    def no_closure(*args):
        raise AssertionError("strict_up called")

    monkeypatch.setattr(partition, "strict_up", no_closure)
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({0: 1, 1: 2, 2: -3})
    zero = eng.zero_mask()
    monkeypatch.setattr(bits, "SLOTS_MAX", 2)
    for slot in range(3):
        assert min_removal_set(zero, 3, slot) == 0b111


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9).filter(bool), min_size=1, max_size=8), st.data())
def test_min_removal_builds_one_level_fewer_than_the_parts(vals, data):
    # A'_1 needs no closure and the empty level that ends the loop takes
    # one, so h(live) - 1 calls of strict_up in all
    if sum(vals):
        vals = vals + [-sum(vals)]
    eng = SubsetSumEngine()
    eng.rebuild_from_debts(dict(enumerate(vals)))
    k = len(vals)
    calls = []

    def counted(words, width):
        calls.append(width)
        return bits.strict_up(words, width)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "strict_up", counted)
        min_removal_set(eng.zero_mask(), k, data.draw(st.integers(0, k - 1)))
    assert len(calls) == oracle_parts(tuple(sorted(vals))) - 1
    # every closure runs over the half cube without the leaver
    assert all(width == k - 1 for width in calls)


def test_min_removal_level_bitsets_count_against_budget(monkeypatch):
    eng = remove_fixture()
    zero = eng.zero_mask()
    monkeypatch.setattr(bits, "SLOTS_MAX", eng.vstar_size - 1)
    with pytest.raises(CapacityError):
        min_removal_set(zero, eng.vstar_size, 3)


def case_balances(test_id: int) -> list[int]:
    n, arcs = generate_case(CaseSpec(test_id))
    return [d for d in balances_of(arcs).values() if d]


@pytest.mark.parametrize(
    "vals",
    [growth_balances(k, k) for k in (17, 18, 19, 20)] + [case_balances(t) for t in (5, 13, 14)],
    ids=["growth17", "growth18", "growth19", "growth20", "case5", "case13", "case14"],
)
def test_min_removal_keeps_the_rest_optimal_at_17_to_20_slots(vals):
    # slot 0 runs inside every word, 5 is the top in-word slot, 6 and 8
    # the strided slots and 9 the first word-view slot; k - 1 is the top
    eng = SubsetSumEngine()
    eng.rebuild_from_debts(dict(enumerate(vals)))  # node i holds slot i
    k = len(vals)
    assert 17 <= k <= 20
    full = oracle_parts(tuple(sorted(vals)))
    for u in sorted({0, 5, 6, 8, 9, k - 1}):
        p = min_removal_set(eng.zero_mask(), k, u)
        assert p >> u & 1
        assert sum(vals[i] for i in bits.bit_positions(p)) == 0
        rest = tuple(sorted(vals[i] for i in range(k) if not p >> i & 1))
        assert (oracle_parts(rest) if rest else 0) == full - 1


# ---- settle_part ------------------------------------------------------------


def test_settle_pair():
    txns = settle_part(0b11, (1, 5), {1: 10, 5: -10})
    assert txns == [Transaction(1, 5, 10)]


def test_settle_triple_greedy_order():
    txns = settle_part(0b111, (7, 8, 9), {7: 2, 8: 2, 9: -4})
    assert txns == [Transaction(7, 9, 2), Transaction(8, 9, 2)]


def test_settle_rejects_zero_balance_member():
    with pytest.raises(ContractError):
        settle_part(0b1, (1,), {1: 0})


def test_settle_rejects_unbalanced_part():
    with pytest.raises(ContractError):
        settle_part(0b11, (1, 2), {1: 3, 2: -4})


def test_settle_rejects_empty_part():
    with pytest.raises(ContractError):
        settle_part(0, (), {})


def test_settle_rejects_negative_part():
    # a negative int has endless set bits: refused, not looped over
    with pytest.raises(ContractError):
        settle_part(-1, (0, 1), {0: 1, 1: -1})


def test_settlement_zeroes_every_member_and_counts():
    for seed in range(30):
        n, arcs = random_instance(seed, max_n=9, max_m=18, max_w=5)
        eng = SubsetSumEngine()
        eng.rebuild_from_debts(balances_of(arcs))
        s0 = eng.zero_sets()
        res = max_partition(eng.live_mask, s0, s0)
        slots = eng.node_slots()
        debts = eng.balances()
        total = 0
        for part in res.parts:
            txns = settle_part(part, slots, debts)
            total += len(txns)
            assert len(txns) <= part.bit_count() - 1
            residual = {slots[i]: debts[slots[i]] for i in range(len(slots)) if part >> i & 1}
            for t in txns:
                residual[t.sender] -= t.amount
                residual[t.receiver] += t.amount
            assert all(v == 0 for v in residual.values())
        # all parts emitted together settle everything mentioned
        assert total <= eng.vstar_size


def test_plan_size_identity_with_atomic_parts():
    # parts drawn from inclusion-minimal sets settle in exactly size-1
    # payments each, so the plan size is the node count minus part count
    for seed in range(30):
        n, arcs = random_instance(seed, max_n=9, max_m=18, max_w=5)
        eng = SubsetSumEngine()
        eng.rebuild_from_debts(balances_of(arcs))
        s0 = eng.zero_sets()
        res = max_partition(eng.live_mask, clear_non_atomic(s0), universe=s0)
        slots = eng.node_slots()
        debts = eng.balances()
        total = 0
        for part in res.parts:
            txns = settle_part(part, slots, debts)
            assert len(txns) == part.bit_count() - 1
            total += len(txns)
        assert total == eng.vstar_size - res.part_count

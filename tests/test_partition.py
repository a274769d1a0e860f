from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debtclear import (
    CapacityError,
    ContractError,
    Transaction,
    ZeroSetList,
    balances_of,
    clear_non_atomic,
    max_partition,
    min_removal_set,
    oracle_max_zero_partition,
    settle_part,
)
from debtclear import bits, partition
from debtclear.engine import SubsetSumEngine

from _support import random_instance


def zsl(*masks):
    return ZeroSetList(masks)


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
    p = min_removal_set(eng.zero_bits(), eng.vstar_size, 3)
    assert p == 0b11000


def test_min_removal_pair_remainder():
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({1: 10, 5: -10})
    p = min_removal_set(eng.zero_bits(), eng.vstar_size, 0)
    assert p == 0b11


def test_min_removal_requires_live_slot():
    eng = remove_fixture()
    with pytest.raises(ContractError):
        min_removal_set(eng.zero_bits(), eng.vstar_size, 7)


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
            p = min_removal_set(eng.zero_bits(), eng.vstar_size, slot)
            assert p & (1 << slot)
            assert eng.subset_sum(p) == 0
            rest = live ^ p
            rest_s0 = ZeroSetList([m for m in s0 if m & p == 0])
            rest_count = max_partition(rest, rest_s0, rest_s0).part_count if rest else 0
            assert full == rest_count + 1


def test_min_removal_prefers_smallest_cardinality():
    # slot 0 can leave inside a pair or inside the whole triple-joined mask
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({1: 1, 2: -1, 3: 1, 4: -1})
    p = min_removal_set(eng.zero_bits(), eng.vstar_size, 0)
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
    assert min_removal_set(eng.zero_bits(), k, u) == expected


def test_min_removal_without_proper_zero_subset_is_live(monkeypatch):
    # no proper subset of {1, 2, -3} sums to zero: the early exit, no closure
    def no_closure(*args):
        raise AssertionError("strict_up called")

    monkeypatch.setattr(partition, "strict_up", no_closure)
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({0: 1, 1: 2, 2: -3})
    for slot in range(3):
        assert min_removal_set(eng.zero_bits(), 3, slot) == 0b111


def test_min_removal_level_bitsets_count_against_budget(monkeypatch):
    eng = remove_fixture()
    zero = eng.zero_bits()
    monkeypatch.setattr(bits, "TABLE_BYTES_MAX", zero.nbytes)
    with pytest.raises(CapacityError):
        min_removal_set(zero, eng.vstar_size, 3)


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

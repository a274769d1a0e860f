import pytest

from debtclear import (
    ContractError,
    Transaction,
    ZeroSetList,
    balances_of,
    clear_non_atomic,
    max_partition,
    min_removal_set,
    settle_part,
)
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
    s0 = eng.zero_sets()
    p = min_removal_set(eng.live_mask, s0, 3, s0)
    assert p == 0b11000


def test_min_removal_pair_remainder():
    eng = SubsetSumEngine()
    eng.rebuild_from_debts({1: 10, 5: -10})
    s0 = eng.zero_sets()
    p = min_removal_set(eng.live_mask, s0, 0, s0)
    assert p == 0b11


def test_min_removal_requires_live_slot():
    eng = remove_fixture()
    s0 = eng.zero_sets()
    with pytest.raises(ContractError):
        min_removal_set(eng.live_mask, s0, 7, s0)


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
            p = min_removal_set(live, s0, slot, s0)
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
    s0 = eng.zero_sets()
    p = min_removal_set(eng.live_mask, s0, 0, s0)
    assert p == 0b0011  # pair beats any 4-element cover


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

import pytest

from debtclear import (
    ContractError,
    ZeroSetList,
    clear_non_atomic,
    clear_pairs,
    max_partition,
)

from _support import random_instance

from debtclear import balances_of
from debtclear.engine import SubsetSumEngine


def zsl(*masks):
    return ZeroSetList(masks)


# ---- ZeroSetList -------------------------------------------------------


def test_zero_set_list_sorts_and_dedupes():
    s = ZeroSetList([9, 6, 9, 15])
    assert list(s) == [6, 9, 15]
    assert 9 in s and 7 not in s


def test_zero_set_list_rejects_empty_mask():
    with pytest.raises(ContractError):
        ZeroSetList([0, 3])


# ---- clear_pairs ----------------------------------------------------------


def test_clear_pairs_worked_example():
    # zero sets of the worked example in slot space: {2,4}=6, {1,5}=9, all=15
    ext = clear_pairs(zsl(6, 9, 15))
    assert ext.fixed_parts == [6, 9]
    assert ext.in_pair == 15
    assert len(ext.reduced) == 0


def test_clear_pairs_overlapping_pairs():
    # pairwise-overlapping pairs on three slots: only the first commits
    ext = clear_pairs(zsl(0b011, 0b101, 0b110))
    assert ext.fixed_parts == [0b011]
    assert ext.in_pair == 0b011
    assert len(ext.reduced) == 0  # both other sets touch the committed pair


def test_clear_pairs_empty():
    ext = clear_pairs(zsl())
    assert ext.fixed_parts == [] and ext.in_pair == 0 and len(ext.reduced) == 0


def test_clear_pairs_only_committed_pairs_poison():
    # two disjoint pairs exist among four overlapping ones; both must commit,
    # otherwise the leftover slots could not be covered at all
    s0 = zsl(0b0011, 0b0110, 0b1001, 0b1100, 0b1111)
    ext = clear_pairs(s0)
    assert ext.fixed_parts == [0b0011, 0b1100]
    assert ext.in_pair == 0b1111


def test_clear_pairs_keeps_disjoint_sets():
    s0 = zsl(0b000011, 0b111100)
    ext = clear_pairs(s0)
    assert ext.fixed_parts == [0b000011]
    assert list(ext.reduced) == [0b111100]


# ---- clear_non_atomic --------------------------------------------------------


def test_clear_non_atomic_worked_example():
    assert list(clear_non_atomic(zsl(6, 9, 15))) == [6, 9]


def test_clear_non_atomic_single_set_fixed_point():
    assert list(clear_non_atomic(zsl(0b111))) == [0b111]


def test_clear_non_atomic_strict_superset_scan():
    # {a,b,c}=7, {d,e}=24, everything=31
    assert list(clear_non_atomic(zsl(7, 24, 31))) == [7, 24]


def test_clear_non_atomic_idempotent_antichain():
    s0 = zsl(0b0011, 0b1100, 0b1111, 0b0111)
    once = clear_non_atomic(s0)
    twice = clear_non_atomic(once)
    assert list(once) == list(twice)
    members = list(once)
    for a in members:
        for b in members:
            assert a == b or (a & b) != a  # no strict containment survives


def test_heuristics_never_add_sets():
    s0 = zsl(0b011, 0b101, 0b1111)
    assert set(clear_non_atomic(s0)) <= set(s0)
    ext = clear_pairs(s0)
    assert set(ext.reduced) <= set(s0)


# ---- joint safety ---------------------------------------------------------------


def part_count_variants(engine):
    """Max part count with (a) no reductions, (b) atoms, (c) pairs + atoms.

    Also asserts that (a) and (b) reconstruct the very same parts.
    """
    s0 = engine.zero_sets()
    live = engine.live_mask
    plain = max_partition(live, s0, s0)
    atomic = max_partition(live, clear_non_atomic(s0), s0)
    assert plain.parts == atomic.parts
    a = plain.part_count
    b = atomic.part_count
    ext = clear_pairs(s0)
    atoms = clear_non_atomic(ext.reduced)
    c = (
        len(ext.fixed_parts)
        + max_partition(live & ~ext.in_pair, atoms, universe=ext.reduced).part_count
    )
    return a, b, c


@pytest.mark.parametrize("seed", range(40))
def test_reductions_preserve_optimum(seed):
    n, arcs = random_instance(seed, max_n=10, max_m=20, max_w=6)
    engine = SubsetSumEngine()
    engine.rebuild_from_debts(balances_of(arcs))
    a, b, c = part_count_variants(engine)
    assert a == b == c


@pytest.mark.parametrize("seed", range(15))
def test_committed_pairs_are_disjoint_zero_pairs(seed):
    n, arcs = random_instance(seed, max_n=10, max_m=20, max_w=4)
    engine = SubsetSumEngine()
    engine.rebuild_from_debts(balances_of(arcs))
    ext = clear_pairs(engine.zero_sets())
    union = 0
    for pair in ext.fixed_parts:
        assert pair.bit_count() == 2
        assert engine.subset_sum(pair) == 0
        assert union & pair == 0
        union |= pair
    assert union == ext.in_pair
    for survivor in ext.reduced:
        assert survivor & ext.in_pair == 0

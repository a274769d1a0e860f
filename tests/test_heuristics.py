import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debtclear import (
    CapacityError,
    ContractError,
    clear_non_atomic,
    clear_pairs,
    max_partition,
)

from _support import EXAMPLE1_BALANCES, random_instance, slot_balances

from debtclear import balances_of, bits
from debtclear.engine import SubsetSumEngine


def zsl(*masks):
    """The masks as a zero-set array: ascending, without duplicates."""
    return np.unique(np.array(masks, dtype=np.int64))


def union(masks):
    out = 0
    for m in masks:
        out |= int(m)
    return out


def table_of(balances):
    """An engine whose slot j holds ``balances[j]`` (all nonzero)."""
    engine = SubsetSumEngine()
    engine.rebuild_from_debts(dict(enumerate(balances)))
    assert slot_balances(engine) == list(balances)
    return engine


def pairs_of(*balances):
    """``clear_pairs`` on slot balances and the zero sets of their table."""
    return clear_pairs(list(balances), table_of(balances).zero_sets())


# ---- the zero-set array check ------------------------------------------------

BAD_ARRAYS = {"unsorted": [5, 3], "duplicate": [3, 3], "zero": [0, 3], "negative": [-3, 3]}


@pytest.mark.parametrize("masks", BAD_ARRAYS.values(), ids=BAD_ARRAYS.keys())
def test_zero_set_arrays_are_checked(masks):
    bad, good = np.array(masks, dtype=np.int64), zsl(3)
    assert max_partition(0b11, good, good).parts == [3]
    with pytest.raises(ContractError, match="strictly ascending"):
        clear_non_atomic(bad)
    with pytest.raises(ContractError, match="strictly ascending"):
        max_partition(0b11, bad, good)
    with pytest.raises(ContractError, match="strictly ascending"):
        max_partition(0b11, good, bad)


# ---- clear_pairs ----------------------------------------------------------


def test_clear_pairs_worked_example():
    # slots hold nodes 1, 2, 4, 5: zero sets {2,4}=6, {1,5}=9, all=15
    d = EXAMPLE1_BALANCES
    pairs, reduced = pairs_of(d[1], d[2], d[4], d[5])
    assert pairs == [6, 9]
    assert union(pairs) == 15
    assert len(reduced) == 0


def test_clear_pairs_overlapping_pairs():
    # two pairs share slot 0: only the first commits
    pairs, reduced = pairs_of(1, -1, -1)
    assert pairs == [0b011]
    assert union(pairs) == 0b011
    assert len(reduced) == 0  # the other set touches the committed pair


def test_clear_pairs_empty():
    pairs, reduced = pairs_of()
    assert pairs == [] and union(pairs) == 0 and len(reduced) == 0


def test_clear_pairs_only_committed_pairs_poison():
    # two disjoint pairs exist among four overlapping ones; both must commit,
    # otherwise the leftover slots could not be covered at all
    pairs, reduced = pairs_of(1, -1, 1, -1)
    assert pairs == [0b0011, 0b1100]
    assert union(pairs) == 0b1111


def test_clear_pairs_keeps_disjoint_sets():
    # zero sets {0,1}, {2,3,4,5} and all six slots
    pairs, reduced = pairs_of(1, -1, 2, 3, 4, -9)
    assert pairs == [0b000011]
    assert list(reduced) == [0b111100]


def reference_pairs(zero_sets):
    """The ascending scan of the two-element zero sets, kept as a reference."""
    in_pair, pairs = 0, []
    for m in zero_sets.tolist():
        if m.bit_count() == 2 and m & in_pair == 0:
            pairs.append(m)
            in_pair |= m
    return pairs, zero_sets[(zero_sets & in_pair) == 0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), max_size=12))
def test_clear_pairs_matches_two_bit_scan(balances):
    zero = table_of(balances).zero_sets()
    pairs, reduced = clear_pairs(balances, zero)
    want_pairs, want_reduced = reference_pairs(zero)
    assert pairs == want_pairs
    assert np.array_equal(reduced, want_reduced)


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


def inclusion_minimal(masks):
    return [m for m in masks if not any(a & m == a and a != m for a in masks)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda w: st.lists(st.integers(1, (1 << w) - 1), max_size=40)))
def test_clear_non_atomic_matches_brute_force(masks):
    # widths up to 6 stay inside one packed word; wider ones add word views
    s0 = zsl(*masks)
    assert list(clear_non_atomic(s0)) == inclusion_minimal(list(s0))


def test_clear_non_atomic_refuses_wide_bitset(monkeypatch):
    with pytest.raises(CapacityError):
        clear_non_atomic(zsl(1 << 40, (1 << 40) | 1))
    # the default bound admits a 24-bit list's bitset and no wider one
    assert list(clear_non_atomic(zsl(1 << 23, (1 << 23) | 1))) == [1 << 23]
    for width in range(25, 31):
        with pytest.raises(CapacityError):
            clear_non_atomic(zsl(1 << (width - 1), (1 << (width - 1)) | 1))
    monkeypatch.setattr(bits, "SLOTS_MAX", 9)
    assert list(clear_non_atomic(zsl(1 << 8, (1 << 8) | 1))) == [1 << 8]
    with pytest.raises(CapacityError):
        clear_non_atomic(zsl(1 << 9, (1 << 9) | 1))
    # short lists need no bitset
    assert list(clear_non_atomic(zsl(1 << 40))) == [1 << 40]


def test_heuristics_never_add_sets():
    s0 = zsl(0b011, 0b101, 0b1111)
    assert set(clear_non_atomic(s0)) <= set(s0)
    balances = [1, -1, 2, 3, -5]
    s0 = table_of(balances).zero_sets()
    pairs, reduced = clear_pairs(balances, s0)
    assert set(reduced) <= set(s0)


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
    pairs, reduced = clear_pairs(slot_balances(engine), s0)
    atoms = clear_non_atomic(reduced)
    c = len(pairs) + max_partition(live - sum(pairs), atoms, universe=reduced).part_count
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
    zero = engine.zero_sets()
    pairs, reduced = clear_pairs(slot_balances(engine), zero)
    covered = 0
    for pair in pairs:
        assert pair.bit_count() == 2
        assert engine.subset_sum(pair) == 0
        assert covered & pair == 0
        covered |= pair
    assert set(pairs) <= set(zero.tolist())
    for survivor in reduced:
        assert survivor & covered == 0
    assert list(reduced) == [m for m in zero if m & covered == 0]

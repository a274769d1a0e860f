import numpy as np
import pytest

from debtclear import DEFAULT_CAPACITY, CapacityError
from debtclear.bits import (
    bit_positions,
    check_table_bytes,
    pack_masks,
    packed_member,
    popcount_array,
    strict_up,
    unpack_masks,
)


def test_bit_positions():
    assert bit_positions(0) == []
    assert bit_positions(0b1) == [0]
    assert bit_positions(0b101001) == [0, 3, 5]


def test_popcount_array():
    arr = np.array([0, 1, 0b111, (1 << 40) - 1], dtype=np.int64)
    assert popcount_array(arr).tolist() == [0, 1, 3, 40]


def brute_strict_up(members: set[int], width: int) -> set[int]:
    return {m for m in range(1 << width) if any(a & m == a and a != m for a in members)}


@pytest.mark.parametrize("width", range(10))
def test_strict_up_matches_brute_force(width):
    # width < 6 pads to one word, 6 adds one word-view slot, 9 adds four
    rng = np.random.default_rng(width)
    for density in (0.02, 0.2, 0.6):
        masks = np.flatnonzero(rng.random(1 << width) < density).astype(np.int64)
        members = set(masks.tolist())
        words = pack_masks(masks, width)
        assert len(words) == max(1, (1 << width) >> 6)
        every = np.arange(1 << width)
        assert set(np.flatnonzero(packed_member(words, every)).tolist()) == members
        assert unpack_masks(words).tolist() == sorted(members)
        up = packed_member(strict_up(words, width), every)
        assert set(np.flatnonzero(up).tolist()) == brute_strict_up(members, width)


def test_table_budget_fits_default_capacity():
    check_table_bytes(8 << DEFAULT_CAPACITY, "table")
    with pytest.raises(CapacityError):
        check_table_bytes((8 << DEFAULT_CAPACITY) + 1, "table")

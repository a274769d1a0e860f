import numpy as np
import pytest

from debtclear import CapacityError
from debtclear.bits import (
    bit_positions,
    check_slots,
    drop_slot,
    pack_flags,
    pack_masks,
    packed_member,
    strict_up,
    unpack_masks,
    word_count,
)


def test_bit_positions():
    assert bit_positions(0) == []
    assert bit_positions(0b1) == [0]
    assert bit_positions(0b101001) == [0, 3, 5]


def brute_strict_up(members: set[int], width: int) -> set[int]:
    return {m for m in range(1 << width) if any(a & m == a and a != m for a in members)}


@pytest.mark.parametrize("width", range(12))
def test_strict_up_matches_brute_force(width):
    # width < 6 pads to one word, 7..9 add the strided slots 6..8, and 10
    # and 11 add the word-view slots 9 and 10; both packers agree
    rng = np.random.default_rng(width)
    for density in (0.02, 0.2, 0.6):
        flags = rng.random(1 << width) < density
        masks = np.flatnonzero(flags).astype(np.int64)
        members = set(masks.tolist())
        words = pack_masks(masks, width)
        assert len(words) == word_count(width) == max(1, (1 << width) >> 6)
        flagged = pack_flags(flags)
        assert flagged.dtype == words.dtype and np.array_equal(flagged, words)
        every = np.arange(1 << width)
        assert set(np.flatnonzero(packed_member(words, every)).tolist()) == members
        assert unpack_masks(words).tolist() == sorted(members)
        up = packed_member(strict_up(words, width), every)
        assert set(np.flatnonzero(up).tolist()) == brute_strict_up(members, width)


@pytest.mark.parametrize("width", [1, 5, 6, 7, 10])
def test_drop_slot_matches_brute_force(width):
    # slots below 6 gather inside every word, slots 6 and up keep every other run
    masks = np.flatnonzero(np.random.default_rng(width).random(1 << width) < 0.5)
    words = pack_masks(masks, width)
    for j in range(width):
        out = drop_slot(words, j)
        low = (1 << j) - 1
        want = [m & low | m >> 1 & ~low for m in masks.tolist() if not m >> j & 1]
        assert len(out) == word_count(width - 1) and unpack_masks(out).tolist() == want
        assert not np.shares_memory(out, words)
        assert np.array_equal(unpack_masks(words), masks)  # the input is left as it was


def test_table_budget_fits_default_capacity():
    # the default bound admits 24 slots and no more
    check_slots(24, "table")
    with pytest.raises(CapacityError):
        check_slots(25, "table")

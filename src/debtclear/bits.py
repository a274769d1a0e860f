"""Slot masks, their packed layout and the one bound on the slot count.

Subsets of engine slots are encoded as integers: bit i is set iff slot i
belongs to the subset.  Masks stay below 63 bits so they always fit in a
signed 64-bit integer (and therefore in an int64 numpy array).

A set of masks below ``2^width`` can also be held packed, one bit per
mask, in ``word_count(width)`` = ``max(1, 2^width / 64)`` ``uint64``
words: mask m is bit ``m % 64`` of word ``m // 64``.  Slot j < 6 then
runs inside every word (its partner bits are ``2^j`` apart), and slot
j >= 6 pairs whole words ``2^(j - 6)`` apart, so a pass over one slot is
either a masked shift of every word or an OR between word runs
``2^(j - 6)`` long, and dropping slot j either gathers the kept half of
every word into its low 32 bits or keeps every other run.

This module is the one owner of that layout: ``pack_masks`` packs a
mask array, ``pack_flags`` one flag per mask (the engine's zero mask),
and ``unpack_masks`` lists the members of either.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError

# the dtype of slot masks (never of money: the sums table picks its own width)
MASK_DTYPE = np.int64

# the one bound on k: every array over a table state has one entry or one
# bit per mask below 2^k, so at k = 24 the state holds at most 128 MiB of
# sums (int64; 16 MiB as int8), the 16 MiB zero mask and 2 MiB per packed
# bitset; read at call time, so a test can lower it
SLOTS_MAX = 24

# _LOW[j] marks the in-word positions b (0..63) whose mask has slot j clear
_LOW = np.array(
    [sum(1 << b for b in range(64) if not b >> j & 1) for j in range(6)], dtype=np.uint64
)
_SHIFT = np.array([1 << j for j in range(6)], dtype=np.uint64)

# Slots 6..STRIDED_SLOT_MAX pair runs of 1, 2 or 4 words, too short for one
# numpy inner loop each, so their passes run one strided OR per word
# offset instead of a word view.  Measured per pass (best of 5, 2-vCPU
# VM), view -> offsets: at width 20, slot 7 81 -> 9 us, slot 8 44 -> 17,
# slot 9 32 -> 27; at width 18, slot 7 33 -> 8, slot 8 17 -> 12, slot 9
# 14 -> 20; at width 16, slot 8 8.8 -> 8.6, slot 9 7.0 -> 17.  Slot 6 is
# one offset, the same loop as its view.
STRIDED_SLOT_MAX = 8


def bit_positions(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def check_slots(k: int, what: str) -> None:
    """Refuse, before allocating, a table over more than ``SLOTS_MAX`` slots."""
    if k > SLOTS_MAX:
        raise CapacityError(f"{what} would span {k} slots, over the bound of {SLOTS_MAX}")


def word_count(width: int) -> int:
    """The ``uint64`` words of a packed set over the masks below ``2^width``."""
    return max(1, (1 << width) >> 6)


def pack_masks(masks: np.ndarray, width: int) -> np.ndarray:
    """Packed set over the masks below ``2^width`` holding exactly ``masks``.

    Raises ``CapacityError``, before allocating, when ``width`` is over
    ``SLOTS_MAX``.
    """
    check_slots(width, "a packed mask set")
    words = np.zeros(word_count(width), dtype=np.uint64)
    np.bitwise_or.at(words, masks >> 6, np.left_shift(np.uint64(1), (masks & 63).astype(np.uint64)))
    return words


def pack_flags(flags: np.ndarray) -> np.ndarray:
    """Packed set of the masks m below ``2^width`` whose ``flags[m]`` is set.

    ``flags`` holds one ``bool`` per mask, ``2^width`` in all; under 64
    masks, the one word is padded with zero bits.
    """
    packed = np.zeros(8 * word_count(len(flags).bit_length() - 1), dtype=np.uint8)
    bits = np.packbits(flags, bitorder="little")
    packed[: len(bits)] = bits
    return packed.view("<u8").astype(np.uint64, copy=False)


def unpack_masks(words: np.ndarray) -> np.ndarray:
    """The members of the packed set ``words``, ascending: ``pack_masks`` undone."""
    nz = np.flatnonzero(words)
    bits = np.unpackbits(words[nz].astype("<u8").view(np.uint8), bitorder="little")
    word, bit = np.divmod(np.flatnonzero(bits), 64)
    return (nz[word] << 6) + bit


def packed_member(words: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Per-element test of ``masks`` for membership in the packed set ``words``."""
    return ((words[masks >> 6] >> (masks & 63).astype(np.uint64)) & np.uint64(1)) != 0


def drop_slot(words: np.ndarray, j: int) -> np.ndarray:
    """A copy of the packed set ``words`` without the members that hold slot j,
    one slot narrower: the slots above j move down by one, the order stays."""
    if j >= 6:
        return words.reshape(-1, 2, 1 << (j - 6))[:, 0].flatten()
    x = words & _LOW[j]
    for s in range(j, 5):
        x = (x | x >> _SHIFT[s]) & _LOW[s + 1]
    return x if len(x) == 1 else x[0::2] | x[1::2] << np.uint64(32)


def _spread(dst: np.ndarray, src: np.ndarray, j: int) -> None:
    """``dst[m | 2^j] |= src[m]`` for every mask m with slot j clear."""
    if j < 6:
        dst |= (src & _LOW[j]) << _SHIFT[j]
        return
    half = 1 << (j - 6)
    if j <= STRIDED_SLOT_MAX:
        for o in range(half):
            dst[half + o :: 2 * half] |= src[o :: 2 * half]
    else:
        dst.reshape(-1, 2, half)[:, 1] |= src.reshape(-1, 2, half)[:, 0]


def strict_up(words: np.ndarray, width: int) -> np.ndarray:
    """Packed set of the masks below ``2^width`` that strictly contain a member.

    One pass per slot ORs in every one-bit extension of a member, then
    one more pass per slot closes that set upward (the OR-zeta transform
    of Björklund, Husfeldt, Kaski and Koivisto): 2 * width passes over
    ``2^width`` bits in all.
    """
    up = np.zeros_like(words)
    for j in range(width):
        _spread(up, words, j)
    for j in range(width):
        _spread(up, up, j)
    return up

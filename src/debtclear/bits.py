"""Bit-mask helpers shared by the engine and the partition solver.

Subsets of engine slots are encoded as integers: bit i is set iff slot i
belongs to the subset.  Masks stay below 63 bits so they always fit in a
signed 64-bit integer (and therefore in an int64 numpy array).

A set of masks below ``2^width`` can also be held packed, one bit per
mask, in ``max(1, 2^width / 64)`` ``uint64`` words: mask m is bit
``m % 64`` of word ``m // 64``.  Slot j < 6 then runs inside every word
(its partner bits are ``2^j`` apart), and slot j >= 6 pairs whole words
``2^(j - 6)`` apart, so a pass over one slot is either a masked shift of
every word or an OR between two halves of a word view.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError

MASK_DTYPE = np.int64

# largest table any pass may allocate, in bytes: the int64 sums of all 24
# default slots; read at call time, so a test can lower it
TABLE_BYTES_MAX = 8 << 24

# _LOW[j] marks the in-word positions b (0..63) whose mask has slot j clear
_LOW = np.array(
    [sum(1 << b for b in range(64) if not b >> j & 1) for j in range(6)], dtype=np.uint64
)
_SHIFT = np.array([1 << j for j in range(6)], dtype=np.uint64)


def bit_positions(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def popcount_array(masks: np.ndarray) -> np.ndarray:
    """Per-element popcount of an int64 mask array."""
    return np.bitwise_count(masks).astype(np.int64)


def check_table_bytes(nbytes: int, what: str) -> None:
    """Refuse, before allocating, a table larger than ``TABLE_BYTES_MAX``."""
    if nbytes > TABLE_BYTES_MAX:
        raise CapacityError(
            f"{what} would take {nbytes} bytes, over the {TABLE_BYTES_MAX}-byte table budget"
        )


def pack_masks(masks: np.ndarray, width: int) -> np.ndarray:
    """Packed set over the masks below ``2^width`` holding exactly ``masks``.

    Raises ``CapacityError``, before allocating, when the set would take
    more than ``TABLE_BYTES_MAX`` bytes.
    """
    nwords = max(1, (1 << width) >> 6)
    check_table_bytes(8 * nwords, "a packed mask set")
    words = np.zeros(nwords, dtype=np.uint64)
    np.bitwise_or.at(words, masks >> 6, np.left_shift(np.uint64(1), (masks & 63).astype(np.uint64)))
    return words


def unpack_masks(words: np.ndarray) -> np.ndarray:
    """The members of the packed set ``words``, ascending: ``pack_masks`` undone."""
    nz = np.flatnonzero(words)
    bits = np.unpackbits(words[nz].astype("<u8").view(np.uint8), bitorder="little")
    word, bit = np.divmod(np.flatnonzero(bits), 64)
    return (nz[word] << 6) + bit


def packed_member(words: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Per-element test of ``masks`` for membership in the packed set ``words``."""
    return ((words[masks >> 6] >> (masks & 63).astype(np.uint64)) & np.uint64(1)) != 0


def _spread(dst: np.ndarray, src: np.ndarray, j: int) -> None:
    """``dst[m | 2^j] |= src[m]`` for every mask m with slot j clear."""
    if j < 6:
        dst |= (src & _LOW[j]) << _SHIFT[j]
    else:
        half = 1 << (j - 6)
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

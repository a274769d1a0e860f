"""Bit-mask helpers shared by the engine and the partition solver.

Subsets of engine slots are encoded as integers: bit i is set iff slot i
belongs to the subset.  Masks stay below 63 bits so they always fit in a
signed 64-bit integer (and therefore in an int64 numpy array).
"""

from __future__ import annotations

import numpy as np

MASK_DTYPE = np.int64


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

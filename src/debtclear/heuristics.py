"""Shrinking passes over the zero-sum subset collection.

The partition step is driven by the list of zero-sum subsets of the live
slots, and its cost grows with that list.  Two safe reductions shrink it
before the dynamic program runs:

* pair extraction commits disjoint two-element zero-sum sets straight to
  the final partition and drops every set touching a committed pair, and
* non-atomic pruning drops every set that strictly contains another set
  of the list: the containee plus its complement always do at least as
  well as the container.

Both passes preserve the maximal achievable part count; neither ever
adds a set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .bits import MASK_DTYPE, popcount_array
from .errors import ContractError


class ZeroSetList:
    """Zero-sum subset masks in ascending numeric order, without duplicates."""

    __slots__ = ("masks",)

    def __init__(self, masks: Iterable[int] | np.ndarray = (), *, _trusted: bool = False):
        arr = np.asarray(masks, dtype=MASK_DTYPE)
        if arr.ndim != 1:
            arr = arr.reshape(-1)
        if not _trusted:
            arr = np.unique(arr)
        if len(arr) and arr[0] <= 0:
            raise ContractError("zero-set masks must be positive integers")
        self.masks = arr

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[int]:
        return (int(m) for m in self.masks)

    def __contains__(self, mask: int) -> bool:
        i = int(np.searchsorted(self.masks, mask))
        return i < len(self.masks) and int(self.masks[i]) == mask

    def __eq__(self, other) -> bool:
        return isinstance(other, ZeroSetList) and np.array_equal(self.masks, other.masks)

    def __repr__(self) -> str:
        return f"ZeroSetList({[int(m) for m in self.masks]!r})"


@dataclass(frozen=True)
class PairExtraction:
    """Result of the pair-commit pass.

    ``fixed_parts`` are the committed two-element parts in commit order,
    ``in_pair`` is the union of their bits, and ``reduced`` is what is
    left of the input list: exactly the sets disjoint from ``in_pair``.
    """

    fixed_parts: list[int] = field(default_factory=list)
    reduced: ZeroSetList = field(default_factory=ZeroSetList)
    in_pair: int = 0


def clear_pairs(s0: ZeroSetList) -> PairExtraction:
    """Commit disjoint two-element sets and prune everything they touch.

    Scans in list order (ascending mask), committing each pair that is
    disjoint from all previously committed pairs.  A two-element part is
    always compatible with some optimal partition of the remainder, so
    the committed pairs plus an optimal partition of the reduced problem
    stay optimal overall.
    """
    in_pair = 0
    fixed: list[int] = []
    for m in s0.masks[popcount_array(s0.masks) == 2]:
        m = int(m)
        if m & in_pair == 0:
            fixed.append(m)
            in_pair |= m
    keep = (s0.masks & MASK_DTYPE(in_pair)) == 0
    reduced = ZeroSetList(s0.masks[keep], _trusted=True)
    return PairExtraction(fixed, reduced, in_pair)


def clear_non_atomic(s0: ZeroSetList) -> ZeroSetList:
    """Drop every set that strictly contains another member of the list.

    The survivors are exactly the inclusion-minimal ("atomic") members.
    Candidates are visited in list order: a strict subset always has a
    smaller mask, so each one only has to be tested against
    already-accepted atoms.
    """
    n = len(s0)
    if n == 0:
        return s0
    masks = s0.masks
    keep = np.ones(n, dtype=bool)
    atoms = np.empty(n, dtype=MASK_DTYPE)
    count = 0
    for idx, m in enumerate(masks):
        if count and bool(np.any((atoms[:count] & m) == atoms[:count])):
            keep[idx] = False
        else:
            atoms[count] = m
            count += 1
    return ZeroSetList(masks[keep], _trusted=True)

"""Shrinking passes over the zero sets of a query.

A query carries its zero sets as a plain ``int64`` array of slot masks,
strictly ascending and positive (``SubsetSumEngine.zero_sets``).  The
partition step is driven by that array, and its cost grows with it.  Two
safe reductions shrink it before the dynamic program runs:

* pair extraction commits disjoint two-element zero sets straight to the
  final partition and drops every set touching a committed pair.  The
  pairs are read off the slot-indexed balances, not the array: slots i
  and j form a zero set exactly when d_i = -d_j.
* non-atomic pruning drops every set that strictly contains another set
  of the array: the containee plus its complement always do at least as
  well as the container.  It is one whole-table closure: with the array
  packed as a bitset Z, the survivors are Z and not strictUp(Z), where
  strictUp(Z) holds every mask that strictly contains a member.

Both passes preserve the maximal achievable part count; neither ever
adds a set.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bits import MASK_DTYPE, check_masks, pack_masks, packed_member, strict_up
from .model import Money


def clear_pairs(
    balances: Sequence[Money], zero_sets: np.ndarray
) -> tuple[list[int], np.ndarray]:
    """Commit disjoint two-element zero sets and prune everything they touch.

    ``balances`` holds the balance of each slot.  For each slot j in
    ascending order, the lowest still-unpaired slot i < j with
    d_i = -d_j is paired with it: the committed masks ``2^i + 2^j`` are
    those of a scan of the two-element zero sets in ascending mask order
    that keeps each one disjoint from all kept before.  A two-element
    part is always compatible with some optimal partition of the
    remainder, so the committed pairs plus an optimal partition of the
    reduced problem stay optimal overall.

    Returns the pairs in commit order (ascending) and the members of
    ``zero_sets`` disjoint from all of them.
    """
    free: dict[Money, list[int]] = {}
    pairs: list[int] = []
    for j, d in enumerate(balances):
        partners = free.get(-d)
        if partners:
            pairs.append((1 << partners.pop(0)) | (1 << j))
        else:
            free.setdefault(d, []).append(j)
    # the pairs are disjoint, so their union is their sum
    return pairs, zero_sets[(zero_sets & MASK_DTYPE(sum(pairs))) == 0]


def clear_non_atomic(zero_sets: np.ndarray) -> np.ndarray:
    """Drop every set that strictly contains another member of the array.

    The survivors are exactly the inclusion-minimal ("atomic") members,
    in array order.  The array is packed as a bitset Z over the masks
    below ``2^width``, width being the bit length of its largest mask,
    and one whole-table closure computes strictUp(Z), every mask strictly
    containing a member; the survivors are Z and not strictUp(Z).  An
    array of fewer than two members has nothing to prune.  Raises
    ``ContractError`` unless the array is strictly ascending and
    positive, and ``CapacityError`` before allocating a bitset wider than
    ``bits.SLOTS_MAX``.
    """
    check_masks(zero_sets)
    if len(zero_sets) < 2:
        return zero_sets
    width = int(zero_sets[-1]).bit_length()
    up = strict_up(pack_masks(zero_sets, width), width)
    return zero_sets[~packed_member(up, zero_sets)]

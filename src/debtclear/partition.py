"""Maximal zero-sum partitioning: h, its two reductions, both DPs, settlement.

Clearing all debts with the fewest payments is the same problem as
splitting the nonzero-balance nodes into as many disjoint zero-sum
groups as possible: a group of size s settles internally with s - 1
payments, so every extra group saves one payment.  Write h(S) for the
most disjoint zero sets a zero set S splits into.

A query carries its zero sets as a strictly ascending, positive
``int64`` array of slot masks (``SubsetSumEngine.zero_sets``), and the
query DP's cost grows with it.  Two reductions shrink it first; both
keep the maximal part count, and neither ever adds a set:

* ``clear_pairs``: slots i and j form a zero set exactly when
  d_i = -d_j.  For each slot j ascending, the lowest unpaired slot
  i < j with d_i = -d_j is paired with it: the pairs that a scan of the
  two-element zero sets in ascending mask order keeps disjoint.  A
  two-element part fits some optimal partition of the remainder, so
  the pairs are committed to the answer and every set touching one is
  dropped.
* ``clear_non_atomic``: a set strictly containing another does no
  better than the containee plus its complement, so only the atoms,
  the inclusion-minimal zero sets, stay.  With the array packed as a
  bitset Z (``bits.pack_masks``), they are Z and not
  ``bits.strict_up``(Z), every mask strictly containing a member: one
  whole-table closure.

``max_partition`` (the query path) is one dynamic program over slot
masks, driven by two zero-set arrays, each strictly ascending:

* ``universe`` holds every zero-sum subset of ``live`` (members outside
  ``live`` are ignored); the table has one row per such set plus the
  empty mask, and
* ``s0`` is any subarray of ``universe`` that contains every atom; it
  supplies the candidate parts.

``dp[t]`` is h(t), and each row records the numerically smallest part
that attains it.  Any zero set ``z`` with ``dp[t \\ z] = dp[t] - 1`` is
itself an atom (a zero set strictly inside ``z`` would split off one more
part), so the atoms alone and the full list give the same dp and the same
choice.

``min_removal_set`` (the departure path) takes no list.  It reads the
engine's zero mask (``SubsetSumEngine.zero_mask``), one ``bool`` per
mask below ``2^k``.  For the live mask L and the leaving slot u,

    h(L) = 1 + max h(C) over the zero sets C inside L without u,

with h(empty set) = 0: L \\ C is a further nonempty zero set, which gives
>=, and dropping the part that holds u from an optimal partition of L
gives <=.  So its levels A'_p = {u-free zero sets S : h(S) >= p} live on
the u-free half cube, the masks below ``2^(k - 1)`` once u is dropped
(``bits.drop_slot``).  A'_1 is the u-free zero sets, and A'_(p+1) = A'_1
and ``bits.strict_up``(A'_p) at width k - 1: a zero set splits into
p + 1 parts exactly when it strictly contains one that splits into p
(the difference of two nested zero sets is again a zero set), and the
subsets of a u-free set are u-free too.  The last nonempty level is
A'_(h(L) - 1), after h(L) - 1 closures; with u put back into its members
C, P = L ^ C are exactly the groups holding u that leave the rest optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bits import (
    MASK_DTYPE,
    bit_positions,
    check_slots,
    drop_slot,
    pack_flags,
    pack_masks,
    packed_member,
    strict_up,
    unpack_masks,
)
from .errors import ContractError
from .model import Money, NodeId, Transaction


def _check_masks(masks: np.ndarray) -> None:
    """Refuse a zero-set array that is not strictly ascending and positive."""
    if len(masks) and (masks[0] <= 0 or bool(np.any(masks[1:] <= masks[:-1]))):
        raise ContractError("masks must be positive and strictly ascending")


def clear_pairs(
    balances: Sequence[Money], zero_sets: np.ndarray
) -> tuple[list[int], np.ndarray]:
    """Commit disjoint two-element zero sets and prune everything they touch.

    ``balances`` holds the balance of each slot; the pairs are chosen by
    the pair rule of the module docstring.  Returns the pairs in commit
    order (ascending) and the members of ``zero_sets`` disjoint from all
    of them.
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
    """The atoms of ``zero_sets``: the members containing no other, in order.

    The closure of the module docstring runs over the masks below
    ``2^width``, width being the bit length of the largest member; an
    array of fewer than two members has nothing to prune.  Raises
    ``ContractError`` unless the array is strictly ascending and
    positive, and ``CapacityError`` before allocating a bitset wider than
    ``bits.SLOTS_MAX``.
    """
    _check_masks(zero_sets)
    if len(zero_sets) < 2:
        return zero_sets
    width = int(zero_sets[-1]).bit_length()
    up = strict_up(pack_masks(zero_sets, width), width)
    return zero_sets[~packed_member(up, zero_sets)]


@dataclass(frozen=True)
class PartitionResult:
    """A maximal partition: disjoint zero-sum parts covering the live mask."""

    parts: list[int]

    @property
    def part_count(self) -> int:
        return len(self.parts)


def _solve_dp(
    live: int, s0: np.ndarray, universe: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build the dp/choice tables over 0 and the zero sets inside ``live``.

    Rows are the ascending masks of ``universe`` contained in ``live``;
    row t draws its candidate parts from the members of ``s0`` inside t.
    """
    if bool(np.any((s0 & MASK_DTYPE(live)) != s0)):
        raise ContractError("zero-set candidates must be subsets of the live mask")
    inside = universe[(universe & MASK_DTYPE(live)) == universe]
    masks = np.concatenate([np.zeros(1, dtype=MASK_DTYPE), inside])
    dp = np.full(len(masks), -1, dtype=np.int64)
    dp[0] = 0
    choice = np.zeros(len(masks), dtype=MASK_DTYPE)
    for i in range(1, len(masks)):
        t = masks[i]
        subs = s0[(s0 & t) == s0]
        if not len(subs):
            continue
        preds = subs ^ t
        pos = np.searchsorted(masks, preds)
        vals = np.where(masks[pos] == preds, dp[pos], -1)
        best = int(vals.max())
        if best < 0:
            continue
        dp[i] = best + 1
        choice[i] = subs[int(np.flatnonzero(vals == best)[0])]
    return masks, dp, choice


def _find(masks: np.ndarray, mask: int) -> int:
    i = int(np.searchsorted(masks, mask))
    if i >= len(masks) or int(masks[i]) != mask:
        return -1
    return i


def max_partition(live: int, s0: np.ndarray, universe: np.ndarray) -> PartitionResult:
    """Partition ``live`` into the maximum number of zero-sum parts.

    ``universe`` holds every zero-sum subset of ``live`` and ``s0`` is a
    subarray of it holding every atom (see the module docstring).  Ties
    between equally good parts are broken toward the numerically
    smallest mask, so the reconstructed parts are deterministic.  Raises
    ``ContractError`` unless both arrays are strictly ascending and
    positive, and when ``live`` cannot be covered (nonzero total, or a
    zero set or atom withheld).
    """
    _check_masks(s0)
    _check_masks(universe)
    if live == 0:
        return PartitionResult([])
    masks, dp, choice = _solve_dp(live, s0, universe)
    i = _find(masks, live)
    if i < 0 or dp[i] < 0:
        raise ContractError("live mask is not partitionable with the given zero sets")
    parts: list[int] = []
    t = live
    while t:
        j = _find(masks, t)
        part = int(choice[j])
        parts.append(part)
        t ^= part
    return PartitionResult(parts)


def _levels(free: np.ndarray, width: int) -> np.ndarray:
    """The last nonempty level A'_p from A'_1 = ``free``, packed below ``2^width``."""
    level = free
    while True:
        up = strict_up(level, width)
        up &= free
        if not up.any():
            return level
        level = up


def min_removal_set(zero: np.ndarray, k: int, u_slot: int) -> int:
    """Smallest zero-sum group containing slot ``u_slot`` that an optimal
    partition of the live mask ``2^k - 1`` can afford to settle now.

    ``zero`` is the live table's zero mask (``SubsetSumEngine.zero_mask``),
    one ``bool`` per mask below ``2^k``, only read.  Returns the zero set P
    containing ``u_slot`` with
    ``h(live \\ P) = h(live) - 1`` of minimum cardinality, ties to the
    numerically smallest mask, read off the last level of the departure
    DP in the module docstring; when no zero set avoids ``u_slot`` the
    live mask is the answer, and no level is built.  Raises
    ``ContractError`` for a negative ``k``, a ``zero`` of another dtype
    or shape, a ``u_slot`` outside the live mask or a live mask that is
    not a zero set, and ``CapacityError``, before the level bitsets are
    built, when ``k`` is over ``bits.SLOTS_MAX``.
    """
    if k < 0 or zero.dtype != np.bool_ or zero.shape != (1 << k,):
        raise ContractError(f"a {zero.dtype} array of shape {zero.shape} is no mask of {k} slots")
    live = (1 << k) - 1
    if not 0 <= u_slot < k:
        raise ContractError(f"slot {u_slot} is not in the live mask")
    if not zero[live]:
        raise ContractError("the live mask is not a zero set")
    # S and live ^ S are both zero sets, and one avoids u, unless S is live
    if np.count_nonzero(zero) == 2:
        return live
    check_slots(k, "the departure's level bitsets")
    free = drop_slot(pack_flags(zero), u_slot)  # A'_1 and the empty set
    free[0] &= ~np.uint64(1)
    c = unpack_masks(_levels(free, k - 1))  # the members C of A'_(h(live) - 1)
    low = MASK_DTYPE((1 << u_slot) - 1)
    p = ((c & low) | ((c & ~low) << 1)) ^ MASK_DTYPE(live)  # u back in, then live ^ C
    order = np.lexsort((p, np.bitwise_count(p)))
    return int(p[order[0]])


def settle_part(
    part: int,
    node_of_slot: Sequence[NodeId],
    debts: Mapping[NodeId, Money],
) -> list[Transaction]:
    """Clear one zero-sum group with greedy bilateral payments.

    Debtors and creditors are each taken in ascending node order; the
    current debtor pays the current creditor whatever amount finishes at
    least one of them.  Emits at most one payment fewer than the group
    size, exactly that many when the group has no zero-sum proper subset.
    """
    if part <= 0:
        raise ContractError(f"cannot settle the part {part}: not a nonempty mask")
    members: list[tuple[NodeId, Money]] = []
    for slot in bit_positions(part):
        if slot >= len(node_of_slot):
            raise ContractError(f"slot {slot} holds no node")
        node = node_of_slot[slot]
        d = debts.get(node, 0)
        if d == 0:
            raise ContractError(f"node {node} has zero balance; not a settleable member")
        members.append((node, d))
    if sum(d for _, d in members) != 0:
        raise ContractError("part balances do not sum to zero")

    members.sort()
    debtors = [[n, d] for n, d in members if d > 0]
    creditors = [[n, -d] for n, d in members if d < 0]
    out: list[Transaction] = []
    i = j = 0
    while i < len(debtors) and j < len(creditors):
        pay = min(debtors[i][1], creditors[j][1])
        out.append(Transaction(debtors[i][0], creditors[j][0], pay))
        debtors[i][1] -= pay
        creditors[j][1] -= pay
        if debtors[i][1] == 0:
            i += 1
        if creditors[j][1] == 0:
            j += 1
    return out

"""Maximal zero-sum partitioning and settlement of the resulting groups.

Clearing all debts with the fewest payments is the same problem as
splitting the nonzero-balance nodes into as many disjoint zero-sum
groups as possible: a group of size s settles internally with s - 1
payments, so every extra group saves one payment.  Write h(S) for the
most disjoint zero sets a zero set S splits into.

``max_partition`` (the query path) is one dynamic program over slot
masks, driven by two zero-set arrays, each strictly ascending:

* ``universe`` holds every zero-sum subset of ``live`` (members outside
  ``live`` are ignored); the table has one row per such set plus the
  empty mask, and
* ``s0`` is any subarray of ``universe`` that contains every atom, i.e.
  every inclusion-minimal zero-sum set; it supplies the candidate parts.

``dp[t]`` is h(t), and each row records the numerically smallest part
that attains it.  Any zero set ``z`` with ``dp[t \\ z] = dp[t] - 1`` is
itself an atom (a zero set strictly inside ``z`` would split off one more
part), so the atoms alone and the full list give the same dp and the same
choice.

``min_removal_set`` (the departure path) takes no list.  It reads the
packed set Z of all nonempty zero sets (``bits.pack_masks`` layout).  For
the live mask L and the leaving slot u,

    h(L) = 1 + max h(C) over the zero sets C inside L without u,

with h(empty set) = 0: L \\ C is a further nonempty zero set, which gives
>=, and dropping the part that holds u from an optimal partition of L
gives <=.  So it builds levels only over the u-free zero sets, A'_p =
{u-free zero sets S : h(S) >= p}: A'_1 = Z without the masks holding u,
and A'_(p+1) = A'_1 and ``bits.strict_up``(A'_p), because a zero set
splits into p + 1 parts exactly when it strictly contains a zero set
that splits into p (the difference of two nested zero sets is again a
zero set), and the subsets of a u-free set are u-free too.  The last
nonempty level is A'_(h(L) - 1), reached with h(L) - 1 closures, and
P = L ^ C over its members C are exactly the groups holding u that leave
the rest optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bits import (
    MASK_DTYPE,
    bit_positions,
    check_masks,
    check_slots,
    packed_member,
    strict_up,
    unpack_masks,
    without_slot,
)
from .errors import ContractError
from .model import Money, NodeId, Transaction


@dataclass(frozen=True)
class PartitionResult:
    """A maximal partition: disjoint zero-sum parts covering the live mask."""

    parts: list[int]
    part_count: int


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
    check_masks(s0)
    check_masks(universe)
    if live == 0:
        return PartitionResult([], 0)
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
    return PartitionResult(parts, len(parts))


def min_removal_set(zero: np.ndarray, k: int, u_slot: int) -> int:
    """Smallest zero-sum group containing slot ``u_slot`` that an optimal
    partition of the live mask ``2^k - 1`` can afford to settle now.

    ``zero`` is the packed set of every nonempty zero set below ``2^k``
    (``SubsetSumEngine.zero_bits``), ``max(1, 2^k / 64)`` words.  Returns
    the zero set P containing ``u_slot`` with ``h(live \\ P) = h(live) - 1``
    of minimum cardinality, ties to the numerically smallest mask.  Those
    P are ``live ^ C`` for the zero sets C without ``u_slot`` of the
    largest h, because

        h(live) = 1 + max h(C) over the zero sets C inside live without u,

    h(empty set) being 0: ``live \\ C`` is a further zero set (>=), and
    the part holding u can be dropped from an optimal partition of live
    (<=).  The levels of these C (see the module docstring) take
    h(live) - 1 closures; when no zero set avoids ``u_slot`` the live mask
    is the answer, and no level is built.  Raises ``ContractError`` for a
    negative ``k`` or a ``zero`` of any other length, and
    ``CapacityError``, before the level bitsets are built, when ``k`` is
    over ``bits.SLOTS_MAX``.
    """
    if k < 0 or len(zero) != max(1, (1 << k) >> 6):
        raise ContractError(f"{len(zero)} words cannot hold the zero sets below 2^{k}")
    live = (1 << k) - 1
    if not 0 <= u_slot < k:
        raise ContractError(f"slot {u_slot} is not in the live mask")
    if not packed_member(zero, np.array([live]))[0]:
        raise ContractError("the live mask is not a zero set")
    free = without_slot(zero, u_slot)  # A'_1
    if not free.any():
        return live
    check_slots(k, "the departure's level bitsets")
    level = free
    while True:
        up = strict_up(level, k)
        up &= free
        if not up.any():
            break
        level = up
    # level is A'_(h(live) - 1): its members C leave P = live ^ C, and no other does
    p = unpack_masks(level) ^ MASK_DTYPE(live)
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

"""Maximal zero-sum partitioning and settlement of the resulting groups.

Clearing all debts with the fewest payments is the same problem as
splitting the nonzero-balance nodes into as many disjoint zero-sum
groups as possible: a group of size s settles internally with s - 1
payments, so every extra group saves one payment.

The search is one dynamic program over slot masks, and both entry
points take the same two zero-set lists:

* ``universe`` lists every zero-sum subset of ``live`` (members outside
  ``live`` are ignored); the table has one row per such set plus the
  empty mask, and
* ``s0`` is any sublist of ``universe`` that contains every atom, i.e.
  every inclusion-minimal zero-sum set; it supplies the candidate parts.

``dp[t]`` is the most parts the zero set ``t`` splits into, and each row
records the numerically smallest part that attains it.  Any zero set
``z`` with ``dp[t \\ z] = dp[t] - 1`` is itself an atom (a zero set
strictly inside ``z`` would split off one more part), so the atoms alone
and the full list give the same dp and the same choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bits import MASK_DTYPE, bit_positions, popcount_array
from .errors import ContractError
from .heuristics import ZeroSetList
from .model import Money, NodeId, Transaction


@dataclass(frozen=True)
class PartitionResult:
    """A maximal partition: disjoint zero-sum parts covering the live mask."""

    parts: list[int]
    part_count: int


def _solve_dp(
    live: int, s0: ZeroSetList, universe: ZeroSetList
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build the dp/choice tables over 0 and the zero sets inside ``live``.

    Rows are the ascending masks of ``universe`` contained in ``live``;
    row t draws its candidate parts from the members of ``s0`` inside t.
    """
    s0m = s0.masks
    if bool(np.any((s0m & MASK_DTYPE(live)) != s0m)):
        raise ContractError("zero-set candidates must be subsets of the live mask")
    um = universe.masks
    masks = np.concatenate([np.zeros(1, dtype=MASK_DTYPE), um[(um & MASK_DTYPE(live)) == um]])
    dp = np.full(len(masks), -1, dtype=np.int64)
    dp[0] = 0
    choice = np.zeros(len(masks), dtype=MASK_DTYPE)
    for i in range(1, len(masks)):
        t = masks[i]
        subs = s0m[(s0m & t) == s0m]
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


def max_partition(live: int, s0: ZeroSetList, universe: ZeroSetList) -> PartitionResult:
    """Partition ``live`` into the maximum number of zero-sum parts.

    ``universe`` lists every zero-sum subset of ``live`` and ``s0`` is a
    sublist of it holding every atom (see the module docstring).  Ties
    between equally good parts are broken toward the numerically
    smallest mask, so the reconstructed parts are deterministic.  Raises
    ``ContractError`` when ``live`` cannot be covered (nonzero total, or
    a zero set or atom withheld).
    """
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


def min_removal_set(live: int, s0: ZeroSetList, u_slot: int, universe: ZeroSetList) -> int:
    """Smallest zero-sum group containing slot ``u_slot`` that an optimal
    partition can afford to settle now.

    Returns the mask P with ``dp[live] = dp[live \\ P] + 1`` of minimum
    cardinality (ties to the numerically smallest mask).  ``universe``
    and ``s0`` follow the module contract over the whole of ``live``, so
    neither may have been through pair extraction: committing pairs
    first can make the best removal group for ``u`` unreachable.
    """
    ubit = 1 << u_slot
    if not live & ubit:
        raise ContractError(f"slot {u_slot} is not in the live mask")
    masks, dp, _ = _solve_dp(live, s0, universe)
    i = _find(masks, live)
    if i < 0 or dp[i] < 1:
        raise ContractError("live mask is not partitionable with the given zero sets")
    cand = (dp == dp[i] - 1) & ((masks & MASK_DTYPE(ubit)) == 0)
    if not bool(cand.any()):
        raise ContractError("no removal group exists; zero-set list is incomplete")
    p = masks[cand] ^ MASK_DTYPE(live)
    order = np.lexsort((p, popcount_array(p)))
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
    if part == 0:
        raise ContractError("cannot settle an empty part")
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

"""Incremental subset-sum engine over the nonzero-balance node set.

The engine tracks the set of nodes whose net balance is nonzero (each one
pinned to a slot index) and a dense array holding, for every subset of
live slots, the sum of member balances.  Every pass over that array goes
through one view: reshaped to one length-2 axis per slot, the table is
indexed with 1 or 0 on the slots a pass fixes, 0 on every vacant slot,
and a full slice on the remaining live slots, which covers exactly the
live submasks of the chosen shape.  Arc insertions patch such views in
place instead of rebuilding the array:

* adding x to one endpoint adds x to the view "this endpoint set, the
  other clear" (or recomputes it from "both clear" when the endpoint
  just gained a slot), and
* when either endpoint is fresh, the view "both set" is recomputed from
  "both clear".

When a node's balance returns to zero its slot is recycled and the array
entries mentioning that slot are deliberately left stale; views fix
vacant slots to 0, so those entries are never read, and a later occupant
recomputes them on entry.  Only masks contained in the live mask are
ever meaningful.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .bits import MASK_DTYPE, bit_positions
from .errors import (
    AmountError,
    CapacityError,
    ContractError,
    LoopError,
    MoneyOverflowError,
    StaleMaskError,
)
from .heuristics import ZeroSetList
from .model import MONEY_MAX, Money, NodeId

DEFAULT_CAPACITY = 24
MAX_CAPACITY = 63


class SubsetSumEngine:
    """Net balances plus subset sums over the nonzero-balance nodes.

    ``capacity`` bounds how many slots may ever be allocated.  The sums
    table holds ``2^width`` int64 entries, where width is the peak number
    of nonzero balances held at once since the last batch rebuild (128
    MiB if all 24 default slots were ever occupied together); it grows by
    doubling as slots are first used and never shrinks as balances
    settle.  Each pass over it touches only the live submasks.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if not 1 <= capacity <= MAX_CAPACITY:
            raise CapacityError(f"capacity must be in 1..{MAX_CAPACITY}, got {capacity}")
        self._capacity = capacity
        self._width = 0
        self._sums = np.zeros(1, dtype=MASK_DTYPE)
        self._node_of_slot: list[NodeId | None] = []
        self._slot_of_node: dict[NodeId, int] = {}
        self._live_mask = 0
        self._debts: dict[NodeId, Money] = {}
        self._pos_total = 0
        self._touched_last = 0

    # ---- read access -------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def live_mask(self) -> int:
        """Mask of slots currently held by nonzero-balance nodes."""
        return self._live_mask

    @property
    def vstar_size(self) -> int:
        return self._live_mask.bit_count()

    @property
    def last_touched_sums(self) -> int:
        """Sums entries written by the most recent mutating call."""
        return self._touched_last

    def debt(self, u: NodeId) -> Money:
        return self._debts.get(u, 0)

    def balances(self) -> dict[NodeId, Money]:
        """Nonzero balances, keyed by node."""
        return dict(self._debts)

    def slot_of(self, u: NodeId) -> int | None:
        return self._slot_of_node.get(u)

    def node_slots(self) -> tuple[NodeId | None, ...]:
        """Slot-indexed view of occupants (None for vacant slots)."""
        return tuple(self._node_of_slot)

    def subset_sum(self, mask: int) -> Money:
        """Sum of balances over the slots in ``mask``.

        Only masks contained in the live mask are defined; anything else
        may alias a stale entry and is rejected.
        """
        if mask & ~self._live_mask:
            raise StaleMaskError(f"mask {mask:#x} is not contained in the live mask")
        return int(self._sums[mask])

    def zero_sets(self) -> ZeroSetList:
        """All nonempty subsets of the live mask with zero balance sum."""
        hits = np.flatnonzero(self._region() == 0)
        hits = hits[hits != 0]
        # bit i of a hit stands for the i-th live slot; while slots 0..n-1
        # are all live, the low n bits are already in place
        live = bit_positions(self._live_mask)
        n = sum(slot == i for i, slot in enumerate(live))
        masks = hits & ((1 << n) - 1)
        for i in range(n, len(live)):
            masks |= (hits & (1 << i)) << (live[i] - i)
        return ZeroSetList(masks, _trusted=True)

    def _region(self, ones: Iterable[int] = (), zeros: Iterable[int] = ()) -> np.ndarray:
        """Writable view of the sums over live submasks with ``ones`` set and ``zeros`` clear.

        A slot named in both counts as set; vacant slots are always clear.
        Axes of the view are the remaining live slots, highest first, so
        its C-order flattening lists the masks in ascending order.
        """
        idx = [slice(None) if self._live_mask >> s & 1 else 0 for s in range(self._width)]
        for s in zeros:
            idx[s] = 0
        for s in ones:
            idx[s] = 1
        return self._sums.reshape((2,) * self._width)[tuple(reversed(idx)) + (...,)]

    # ---- slot management ----------------------------------------------

    def enter_vstar(self, u: NodeId) -> int:
        """Assign a slot to ``u``, which is about to gain a nonzero balance.

        Vacant slots below the width are preferred (lowest index first).
        Sums entries for masks containing the slot are stale until the
        caller runs the recomputation branch of the update.
        """
        if u in self._slot_of_node:
            raise ContractError(f"node {u} already holds a slot")
        vacant = ~self._live_mask & ((1 << self._width) - 1)
        if vacant:
            slot = (vacant & -vacant).bit_length() - 1
        elif self._width < self._capacity:
            slot = self._width
            self._width += 1
            self._node_of_slot.append(None)
            self._sums = np.concatenate([self._sums, np.zeros_like(self._sums)])
        else:
            raise CapacityError(
                f"all {self._capacity} slots in use; cannot track another nonzero balance"
            )
        self._node_of_slot[slot] = u
        self._slot_of_node[u] = slot
        self._live_mask |= 1 << slot
        return slot

    def _leave_vstar(self, u: NodeId) -> None:
        slot = self._slot_of_node.pop(u)
        self._node_of_slot[slot] = None
        self._live_mask &= ~(1 << slot)

    # ---- incremental updates -------------------------------------------

    def apply_arc_delta(self, u: NodeId, v: NodeId, x: Money) -> None:
        """Record that ``u`` must pay ``x`` to ``v`` and repair the sums.

        Adjusts both balances and moves the endpoints in or out of the
        live slot set.  Each endpoint still live then has ``x`` (or
        ``-x``) added to its view "this endpoint set, the other clear";
        an endpoint that just gained its slot has that view recomputed
        from "both clear" instead, and then "both set" is recomputed from
        "both clear" too.  With k live slots each view holds ``2^(k - 2)``
        entries, so at most ``3 * 2^(k - 2)`` are touched.
        """
        if u == v:
            raise LoopError(f"arc from node {u} to itself")
        if x <= 0:
            raise AmountError(f"arc amount must be positive, got {x}")
        if x > MONEY_MAX:
            raise MoneyOverflowError(f"arc amount {x} outside signed 64-bit range")

        du = self._debts.get(u, 0)
        dv = self._debts.get(v, 0)
        new_u = du + x
        new_v = dv - x
        new_pos = (
            self._pos_total
            - max(du, 0)
            - max(dv, 0)
            + max(new_u, 0)
            + max(new_v, 0)
        )
        if new_pos > MONEY_MAX:
            raise MoneyOverflowError("balances would exceed the signed 64-bit range")
        need = (du == 0) + (dv == 0)
        if need > self._capacity - self.vstar_size:
            raise CapacityError(
                f"all {self._capacity} slots in use; cannot track another nonzero balance"
            )

        if du == 0:
            self.enter_vstar(u)
        if dv == 0:
            self.enter_vstar(v)
        self._debts[u] = new_u
        self._debts[v] = new_v
        self._pos_total = new_pos
        if new_u == 0:
            del self._debts[u]
            self._leave_vstar(u)
        if new_v == 0:
            del self._debts[v]
            self._leave_vstar(v)

        ends = [s for s in (self._slot_of_node.get(u), self._slot_of_node.get(v)) if s is not None]
        base = self._region(zeros=ends)
        fresh = False
        self._touched_last = 0
        for node, delta in ((u, x), (v, -x)):
            slot = self._slot_of_node.get(node)
            if slot is None:
                continue
            dst = self._region(ones=(slot,), zeros=ends)
            if self._debts[node] == delta:
                fresh = True
                np.add(base, delta, out=dst)
            else:
                dst += delta
            self._touched_last += dst.size
        if fresh and len(ends) == 2:
            dst = self._region(ones=ends)
            np.add(base, new_u + new_v, out=dst)
            self._touched_last += dst.size

    # ---- batch construction ---------------------------------------------

    def rebuild_from_debts(self, debts: Mapping[NodeId, Money]) -> None:
        """Reset the engine to the given balances in one batch pass.

        Slots are assigned to nonzero-balance nodes in ascending node
        order, and the table is filled by doubling: the sums with slot j
        set are the sums below ``2^j`` plus slot j's balance.
        """
        nonzero = sorted((u, d) for u, d in debts.items() if d != 0)
        k = len(nonzero)
        if k > self._capacity:
            raise CapacityError(
                f"{k} nonzero balances exceed the configured {self._capacity} slots"
            )
        pos_total = sum(d for _, d in nonzero if d > 0)
        if pos_total > MONEY_MAX:
            raise MoneyOverflowError("balances exceed the signed 64-bit range")

        self._width = k
        self._node_of_slot = [u for u, _ in nonzero]
        self._slot_of_node = {u: i for i, (u, _) in enumerate(nonzero)}
        self._live_mask = (1 << k) - 1
        self._debts = dict(nonzero)
        self._pos_total = pos_total
        self._touched_last = 0

        sums = np.empty(1 << k, dtype=MASK_DTYPE)
        sums[0] = 0
        for j, (_, d) in enumerate(nonzero):
            np.add(sums[: 1 << j], d, out=sums[1 << j : 2 << j])
        self._sums = sums

    # ---- block removal ---------------------------------------------------

    def clear_block(self, mask: int) -> None:
        """Zero the balances of every slot in ``mask`` and free the slots.

        Used after a zero-sum group has been settled; sums entries over
        the remaining live mask are untouched and stay valid.
        """
        if mask & ~self._live_mask:
            raise ContractError(f"mask {mask:#x} is not contained in the live mask")
        for slot in bit_positions(mask):
            node = self._node_of_slot[slot]
            d = self._debts.pop(node)
            if d > 0:
                self._pos_total -= d
            self._leave_vstar(node)


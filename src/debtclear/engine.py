"""Incremental subset-sum engine over the nonzero-balance node set.

The engine rests on one invariant: a node holds a slot index, and with
it a share of the sums table, exactly while its net balance is nonzero.
``SubsetSumEngine._set_balance`` is the one place that changes a balance
outside a batch rebuild, and so the one place that keeps the invariant.
Next to the slots the engine keeps a dense array holding, for every
subset of live slots, the sum of member balances.  Every pass over that
array goes through one view: reshaped to one length-2 axis per slot, the
table is indexed with 1 or 0 on the slots a pass fixes, 0 on every vacant
slot, and a full slice on the remaining live slots, which covers exactly
the live submasks of the chosen shape.  Arc insertions patch such views in
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
from .model import MONEY_MAX, MONEY_MIN, Money, NodeId

DEFAULT_CAPACITY = 24
MAX_CAPACITY = 63


def _check_range(balances: Iterable[Money]) -> None:
    """Refuse balances whose positive or negative total leaves the int64 range.

    Every subset sum lies between the two totals, so this bounds the
    whole table.
    """
    pos = neg = 0
    for d in balances:
        if d > 0:
            pos += d
        else:
            neg += d
    if pos > MONEY_MAX or neg < MONEY_MIN:
        raise MoneyOverflowError("balances would exceed the signed 64-bit range")


class SubsetSumEngine:
    """Net balances plus subset sums over the nonzero-balance nodes.

    A node is live, holding a slot, exactly while its balance is nonzero;
    ``_set_balance`` alone enters and leaves slots between batch rebuilds.
    ``capacity`` bounds how many slots may ever be allocated.  The sums
    table holds ``2^width`` int64 entries, where width, the length of the
    slot list, is the peak number of nonzero balances held at once since
    the last batch rebuild (128 MiB if all 24 default slots were ever
    occupied together); it grows by doubling as slots are first used and
    never shrinks as balances settle.  Each pass over it touches only the
    live submasks.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if not 1 <= capacity <= MAX_CAPACITY:
            raise CapacityError(f"capacity must be in 1..{MAX_CAPACITY}, got {capacity}")
        self._capacity = capacity
        self._sums = np.zeros(1, dtype=MASK_DTYPE)
        self._node_of_slot: list[NodeId | None] = []
        self._slot_of_node: dict[NodeId, int] = {}
        self._live_mask = 0
        self._debts: dict[NodeId, Money] = {}
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
        width = len(self._node_of_slot)
        idx = [slice(None) if self._live_mask >> s & 1 else 0 for s in range(width)]
        for s in zeros:
            idx[s] = 0
        for s in ones:
            idx[s] = 1
        return self._sums.reshape((2,) * width)[tuple(reversed(idx)) + (...,)]

    # ---- slot management ----------------------------------------------

    def _set_balance(self, u: NodeId, d: Money) -> None:
        """Give ``u`` the balance ``d``, entering or leaving a slot to match.

        A node gaining a nonzero balance takes the lowest vacant slot, or
        widens the table by one slot when none is vacant (the new half is
        left uninitialised); sums entries for masks containing that slot
        are stale until the caller recomputes them.  A node whose balance
        returns to zero frees its slot.  Callers check capacity first.
        """
        if d == 0:
            del self._debts[u]
            slot = self._slot_of_node.pop(u)
            self._node_of_slot[slot] = None
            self._live_mask &= ~(1 << slot)
            return
        if u not in self._slot_of_node:
            # lowest clear bit of the live mask: a vacant slot, else the width
            slot = (~self._live_mask & (self._live_mask + 1)).bit_length() - 1
            if slot == len(self._node_of_slot):
                self._node_of_slot.append(None)
                sums = np.empty(2 * len(self._sums), dtype=MASK_DTYPE)
                sums[: len(self._sums)] = self._sums
                self._sums = sums
            self._node_of_slot[slot] = u
            self._slot_of_node[u] = slot
            self._live_mask |= 1 << slot
        self._debts[u] = d

    # ---- incremental updates -------------------------------------------

    def apply_arc_delta(self, u: NodeId, v: NodeId, x: Money) -> None:
        """Record that ``u`` must pay ``x`` to ``v`` and repair the sums.

        Both signs of the int64 range and the slot capacity are checked on
        the prospective balances before anything changes, so a rejected
        arc leaves the engine as it was.  The endpoints then move in or
        out of the live slot set.  Each endpoint still live has ``x`` (or
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
        _check_range({**self._debts, u: new_u, v: new_v}.values())
        need = (du == 0) + (dv == 0)
        if need > self._capacity - self.vstar_size:
            raise CapacityError(
                f"all {self._capacity} slots in use; cannot track another nonzero balance"
            )

        # entries before departures: a fresh endpoint never takes the slot
        # its partner is vacating
        if new_u:
            self._set_balance(u, new_u)
            self._set_balance(v, new_v)
        else:
            self._set_balance(v, new_v)
            self._set_balance(u, new_u)

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

        The slot capacity and both signs of the int64 range are checked
        before anything changes.  Slots are assigned to nonzero-balance
        nodes in ascending node order, and the table is filled by
        doubling: the sums with slot j set are the sums below ``2^j`` plus
        slot j's balance.
        """
        nonzero = sorted((u, d) for u, d in debts.items() if d != 0)
        k = len(nonzero)
        if k > self._capacity:
            raise CapacityError(
                f"{k} nonzero balances exceed the configured {self._capacity} slots"
            )
        _check_range(d for _, d in nonzero)

        self._node_of_slot = [u for u, _ in nonzero]
        self._slot_of_node = {u: i for i, (u, _) in enumerate(nonzero)}
        self._live_mask = (1 << k) - 1
        self._debts = dict(nonzero)
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
            self._set_balance(self._node_of_slot[slot], 0)

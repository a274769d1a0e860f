"""Incremental subset-sum engine over the nonzero-balance node set.

The engine rests on one invariant: the k nodes whose net balance is
nonzero hold slots 0..k-1, so every subset of them is a mask below
``2^k``.  ``SubsetSumEngine._set_balance`` is the one place that changes
a balance outside a batch rebuild, and so the one place that keeps the
invariant: a node entering takes slot k, and a node leaving hands its
slot to the node in the top slot.  Next to the slots the engine keeps a
dense array whose prefix of ``2^k`` entries holds, for every subset of
live slots, the sum of member balances.  Every pass over that prefix goes
through one view: reshaped to one length-2 axis per slot, it is indexed
with 1 or 0 on the slots a pass fixes and a full slice on the others.
Arc insertions patch such views in place instead of rebuilding the array:

* adding x to one endpoint adds x to the view "this endpoint set, the
  other clear" (or recomputes it from "both clear" when the endpoint
  just gained a slot), and
* when either endpoint is fresh, the view "both set" is recomputed from
  "both clear".
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .bits import MASK_DTYPE, bit_positions, check_table_bytes
from .errors import (
    AmountError,
    CapacityError,
    ContractError,
    LoopError,
    MoneyOverflowError,
    StaleMaskError,
)
from .heuristics import ZeroSetList
from .model import MONEY_MAX, MONEY_MIN, Money, NodeId, _check_amount

DEFAULT_CAPACITY = 24
MAX_CAPACITY = 63

# Tables that engines are done with, at most one per length, for the
# next table of that length.  Engines are often short-lived and reach
# the same width again (a static solve builds one, and so does every
# fresh Ledger, by doubling), and a table the allocator hands out fresh
# may fault its pages in one by one, or not, depending on whether the
# heap was trimmed before.  Only the table of a dropped engine, or one a
# batch rebuild replaces, is kept: a table outgrown by doubling goes back
# to the allocator, whose recently freed chunks come back cache-warm for
# the doublings of the next engine.  Lengths above SPARE_LEN_MAX (16
# slots) are left to the allocator too, so at most twice that many int64
# entries (1 MiB) are held back.
SPARE_LEN_MAX = 1 << 16
_spare: dict[int, np.ndarray] = {}


def _take_table(n: int) -> np.ndarray:
    """An int64 table of ``n`` entries, reused if one was let go of."""
    table = _spare.pop(n, None)
    return np.empty(n, dtype=MASK_DTYPE) if table is None else table


def _release_table(table: np.ndarray) -> None:
    """Keep a table no engine reads any more for ``_take_table``."""
    if len(table) <= SPARE_LEN_MAX:
        _spare.setdefault(len(table), table)


def _check_range(balances: Iterable[Money]) -> None:
    """Refuse balances whose positive or negative total leaves the int64 range.

    Every subset sum lies between the two totals, so this bounds the
    whole table.  The balances must be ``int``s: a numpy scalar would
    wrap while being summed.
    """
    pos = neg = 0
    for d in balances:
        if d > 0:
            pos += d
        else:
            neg += d
    if pos > MONEY_MAX or neg < MONEY_MIN:
        raise MoneyOverflowError("balances would exceed the signed 64-bit range")


def _check_table(k: int) -> None:
    """Refuse a live table of ``2^k`` int64 sums over the table budget."""
    check_table_bytes(8 << k, "the sums table")


class SubsetSumEngine:
    """Net balances plus subset sums over the nonzero-balance nodes.

    The k nodes with a nonzero balance hold slots 0..k-1;
    ``_set_balance`` alone enters and leaves slots between batch
    rebuilds.  ``capacity`` bounds how many slots may ever be held at
    once.  The live sums are the first ``2^k`` int64 entries of an
    allocation that grows by doubling when a node enters a full one and
    never shrinks as balances settle, so it holds ``2^w`` entries, w
    being the peak k since the last batch rebuild.  A k whose live table
    would exceed ``bits.TABLE_BYTES_MAX`` (128 MiB, the 24 default slots)
    is refused before anything is allocated.  A table replaced by a
    rebuild or dropped with the engine goes to the module's spare tables
    (``_take_table``).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if not 1 <= capacity <= MAX_CAPACITY:
            raise CapacityError(f"capacity must be in 1..{MAX_CAPACITY}, got {capacity}")
        self._capacity = capacity
        self._sums = np.zeros(1, dtype=MASK_DTYPE)
        self._node_of_slot: list[NodeId] = []
        self._slot_of_node: dict[NodeId, int] = {}
        self._debts: dict[NodeId, Money] = {}
        self._touched_last = 0

    def __del__(self) -> None:
        # the table never leaves the engine (reads copy out of it), so no
        # view of it outlives the engine
        table = getattr(self, "_sums", None)
        if table is not None:
            _release_table(table)

    # ---- read access -------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def live_mask(self) -> int:
        """Mask of slots currently held by nonzero-balance nodes."""
        return (1 << len(self._node_of_slot)) - 1

    @property
    def vstar_size(self) -> int:
        return len(self._node_of_slot)

    @property
    def last_touched_sums(self) -> int:
        """Sums entries written or moved by the most recent mutating call."""
        return self._touched_last

    def debt(self, u: NodeId) -> Money:
        return self._debts.get(u, 0)

    def balances(self) -> dict[NodeId, Money]:
        """Nonzero balances, keyed by node."""
        return dict(self._debts)

    def slot_of(self, u: NodeId) -> int | None:
        return self._slot_of_node.get(u)

    def node_slots(self) -> tuple[NodeId, ...]:
        """Slot-indexed view of the nonzero-balance nodes."""
        return tuple(self._node_of_slot)

    def subset_sum(self, mask: int) -> Money:
        """Sum of balances over the slots in ``mask``.

        Only masks contained in the live mask are defined; anything else
        may read an entry left over from a wider table and is rejected.
        """
        if mask & ~self.live_mask:
            raise StaleMaskError(f"mask {mask:#x} is not contained in the live mask")
        return int(self._sums[mask])

    def zero_sets(self) -> ZeroSetList:
        """All nonempty subsets of the live mask with zero balance sum.

        They are the positions of the zero entries of the live table,
        ascending, except position 0: the empty set.
        """
        hits = np.flatnonzero(self._region() == 0)
        return ZeroSetList(hits[hits != 0], _trusted=True)

    def zero_bits(self) -> np.ndarray:
        """The zero sets of ``zero_sets``, packed as in ``bits.pack_masks``.

        One bit per live mask, set where the live table is zero, bit 0
        (the empty set) cleared: ``max(1, 2^k / 64)`` ``uint64`` words,
        checked against the table budget before they are allocated.
        """
        k = len(self._node_of_slot)
        nbytes = 8 * max(1, (1 << k) >> 6)
        check_table_bytes(nbytes, "the packed zero sets")
        packed = np.zeros(nbytes, dtype=np.uint8)
        bits = np.packbits(self._sums[: 1 << k] == 0, bitorder="little")
        packed[: len(bits)] = bits
        packed[0] &= 0xFE
        return packed.view("<u8").astype(np.uint64, copy=False)

    def _region(self, ones: Iterable[int] = (), zeros: Iterable[int] = ()) -> np.ndarray:
        """Writable view of the live sums with ``ones`` set and ``zeros`` clear.

        A slot named in both counts as set.  Axes of the view are the
        remaining live slots, highest first, so its C-order flattening
        lists the masks in ascending order.
        """
        k = len(self._node_of_slot)
        idx = [slice(None)] * k
        for s in zeros:
            idx[s] = 0
        for s in ones:
            idx[s] = 1
        return self._sums[: 1 << k].reshape((2,) * k)[tuple(reversed(idx)) + (...,)]

    # ---- slot management ----------------------------------------------

    def _set_balance(self, u: NodeId, d: Money) -> int:
        """Give ``u`` the balance ``d``, entering or leaving a slot to match.

        A node gaining a nonzero balance takes slot k, doubling the
        allocation when it is full; sums entries for masks containing that
        slot are stale until the caller recomputes them.  A node whose
        balance returns to zero hands its slot s to the node in the top
        slot t, whose sums move from "t set, s clear" to "s set, t clear",
        and slot t is dropped.  Returns the number of entries moved.
        Callers check capacity first.
        """
        if d == 0:
            del self._debts[u]
            s = self._slot_of_node.pop(u)
            t = len(self._node_of_slot) - 1
            moved = 0
            if s != t:
                src = self._region(ones=(t,), zeros=(s,))
                self._region(ones=(s,), zeros=(t,))[...] = src
                moved = src.size
                top = self._node_of_slot[t]
                self._node_of_slot[s] = top
                self._slot_of_node[top] = s
            self._node_of_slot.pop()
            return moved
        if u not in self._slot_of_node:
            k = len(self._node_of_slot)
            if 2 << k > len(self._sums):
                sums = _take_table(2 * len(self._sums))
                sums[: len(self._sums)] = self._sums
                self._sums = sums
            self._node_of_slot.append(u)
            self._slot_of_node[u] = k
        self._debts[u] = d
        return 0

    # ---- incremental updates -------------------------------------------

    def apply_arc_delta(self, u: NodeId, v: NodeId, x: Money) -> None:
        """Record that ``u`` must pay ``x`` to ``v`` and repair the sums.

        ``x`` must be a positive ``int``.  Both signs of the int64 range,
        the slot capacity and the table budget are checked on the
        prospective balances before anything changes, so a rejected arc
        leaves the engine as it was.  An endpoint whose balance returns to zero leaves its slot
        first, which may move the top slot's sums down; only then does a
        fresh endpoint enter at slot k.  Each endpoint still live has
        ``x`` (or ``-x``) added to its view "this endpoint set, the other
        clear"; an endpoint that just gained its slot has that view
        recomputed from "both clear" instead, and then "both set" is
        recomputed from "both clear" too.  With K the larger of k before
        and after, each move or view holds at most ``2^(K - 2)`` entries,
        and at most ``3 * 2^(K - 2)`` are touched.
        """
        if u == v:
            raise LoopError(f"arc from node {u} to itself")
        _check_amount("arc", x)

        du = self._debts.get(u, 0)
        dv = self._debts.get(v, 0)
        new_u = du + x
        new_v = dv - x
        _check_range({**self._debts, u: new_u, v: new_v}.values())
        # an endpoint that settles frees its slot before a fresh one takes it
        k = self.vstar_size + (du == 0) + (dv == 0) - (new_u == 0) - (new_v == 0)
        if k > self._capacity:
            raise CapacityError(
                f"all {self._capacity} slots in use; cannot track another nonzero balance"
            )
        _check_table(k)

        # departures before entries: an entering endpoint never widens the
        # table past the final k, and no slot move copies its stale entries
        if new_v:
            moved = self._set_balance(u, new_u) + self._set_balance(v, new_v)
        else:
            moved = self._set_balance(v, new_v) + self._set_balance(u, new_u)

        ends = [s for s in (self._slot_of_node.get(u), self._slot_of_node.get(v)) if s is not None]
        base = self._region(zeros=ends)
        fresh = False
        self._touched_last = moved
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

        Every balance must be an ``int``; that, the slot capacity, the
        table budget and both signs of the int64 range are checked before
        anything changes.  Slots are assigned to nonzero-balance nodes in
        ascending node order, and the table is filled by doubling: the
        sums with slot j set are the sums below ``2^j`` plus slot j's
        balance.
        """
        for d in debts.values():
            if type(d) is not int:
                raise AmountError(f"balance must be an integer, got {d!r}")
        nonzero = sorted((u, d) for u, d in debts.items() if d != 0)
        k = len(nonzero)
        if k > self._capacity:
            raise CapacityError(
                f"{k} nonzero balances exceed the configured {self._capacity} slots"
            )
        _check_range(d for _, d in nonzero)
        _check_table(k)

        self._node_of_slot = [u for u, _ in nonzero]
        self._slot_of_node = {u: i for i, (u, _) in enumerate(nonzero)}
        self._debts = dict(nonzero)
        self._touched_last = 0

        sums = _take_table(1 << k)
        sums[0] = 0
        for j, (_, d) in enumerate(nonzero):
            np.add(sums[: 1 << j], d, out=sums[1 << j : 2 << j])
        _release_table(self._sums)
        self._sums = sums

    # ---- block removal ---------------------------------------------------

    def clear_block(self, mask: int) -> None:
        """Zero the balances of every slot in ``mask`` and free the slots.

        Used after a zero-sum group has been settled.  Slots are freed
        highest first, so the slots of ``mask`` not yet freed keep their
        numbers, and a slot whose higher neighbours were all in ``mask``
        is the top when freed and moves nothing; any other freed slot
        takes over the top slot's node and sums.  ``last_touched_sums``
        counts the moved entries.
        """
        if mask & ~self.live_mask:
            raise ContractError(f"mask {mask:#x} is not contained in the live mask")
        self._touched_last = sum(
            self._set_balance(self._node_of_slot[slot], 0)
            for slot in reversed(bit_positions(mask))
        )

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

* adding x to an endpoint that stays live adds x to the view "this
  endpoint set, the other clear" (or "this endpoint set" when the other
  endpoint is not live), and
* an endpoint that enters takes slot t and fills the new half of the
  table in one doubling step, ``sums[2^t : 2^(t+1)] = sums[:2^t] + d``,
  the step the batch rebuild also builds its table with.

numpy runs the innermost axis of a view as one loop, so a patch with a
low slot fixed would run inner loops of a few entries.  Such a patch
instead adds a precomputed 0/1 row of ``2^ROW_SLOTS`` entries, times x,
to every row of the table that the fixed slots above the row select.
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

# numpy runs a view's innermost axes as one loop: from the view's lowest
# free slot up to the next fixed slot. When that run spans at most
# SHORT_RUN_SLOTS slots (2 to 8 entries: slot 0 free and a slot in 1..3
# fixed, or slot 0 and a slot in 2..4 fixed) and k >= ROW_SLOTS, a patch
# instead adds a 0/1 pattern row over whole 2^ROW_SLOTS-entry rows; the
# row writes up to four times the entries the view would (the zeros of the
# pattern), but in one contiguous inner loop of 1,024. Measured at k = 20
# (one pass, best of 3, 2-vCPU VM), view -> row, by fixed slots (set,
# clear): 1 3.56 -> 0.72 ms, 2 1.90 -> 0.69, 3 1.32 -> 0.70; (1, 12) 1.59
# -> 0.66, (2, 5) 1.41 -> 0.78, (3, 18) 0.78 -> 0.35, (0, 2) 1.54 -> 0.75,
# (0, 4) 0.80 -> 0.73. Longer runs favour the view: slot 0 alone (one
# stride-2 loop) 0.53 -> 0.69, (1, 0) (one stride-4 loop) 0.50 -> 0.77,
# (0, 5) 0.69 -> 0.71, (4, 5) 0.59 -> 0.79, (12, 18) 0.13 -> 0.36; a lone
# slot 4 to 6 is the exception (1.01, 0.93, 0.79 -> 0.70 to 0.71). Rows of
# 2^8 to 2^12 entries measured alike (0.72 to 0.80 ms with slot 1 fixed);
# rows of 2^13 ran single passes faster, but not ledger-stream's update
# tail, and would leave 10 to 12 slots on views.
ROW_SLOTS = 10
SHORT_RUN_SLOTS = 3
# _PATTERN[b, s]: 1 where the position in a row has slot s equal to b
_PATTERN = (
    (np.arange(1 << ROW_SLOTS) >> np.arange(ROW_SLOTS)[:, None] & 1) == np.arange(2)[:, None, None]
).astype(MASK_DTYPE)

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


def _inner_run(fixed: tuple[int, ...], k: int) -> int:
    """Slots that numpy's inner loop spans in a view of ``k`` slots with the
    one or two slots ``fixed``: from the lowest free slot to the next fixed one."""
    low = min({0, 1, 2}.difference(fixed))
    return min([s for s in fixed if s > low], default=k) - low


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

        A node gaining a nonzero balance takes slot t = k, doubling the
        allocation when it is full, and fills the sums of the masks that
        contain slot t in one doubling step: ``sums[2^t : 2^(t+1)] =
        sums[:2^t] + d``.  A node whose balance returns to zero hands its
        slot s to the node in the top slot t, whose sums move from "t set,
        s clear" to "s set, t clear", and slot t is dropped.  A node that
        keeps its slot only has its balance recorded: its sums are the
        caller's to patch.  Returns the number of entries written or
        moved.  Callers check capacity first.
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
        self._debts[u] = d
        if u in self._slot_of_node:
            return 0
        t = len(self._node_of_slot)
        if 2 << t > len(self._sums):
            sums = _take_table(2 * len(self._sums))
            sums[: len(self._sums)] = self._sums
            self._sums = sums
        self._node_of_slot.append(u)
        self._slot_of_node[u] = t
        np.add(self._sums[: 1 << t], d, out=self._sums[1 << t : 2 << t])
        return 1 << t

    def _patch(self, delta: Money, one: int, zeros: list[int]) -> int:
        """Add ``delta`` to the live sums with slot ``one`` set and ``zeros`` clear.

        ``zeros`` holds at most one slot.  With at least ROW_SLOTS live
        slots and a view whose inner run spans at most SHORT_RUN_SLOTS
        slots, the fixed slots below ROW_SLOTS become a pattern row that
        is added to every row the others select; otherwise the view of
        ``_region`` takes ``delta``.  Returns the number of entries that
        gained ``delta``.
        """
        k = len(self._node_of_slot)
        if k < ROW_SLOTS or _inner_run((one, *zeros), k) > SHORT_RUN_SLOTS:
            dst = self._region(ones=(one,), zeros=zeros)
            dst += delta
            return dst.size
        row = np.full(1 << ROW_SLOTS, delta, dtype=MASK_DTYPE)
        idx = [slice(None)] * (k - ROW_SLOTS)
        for s, b in [(one, 1)] + [(z, 0) for z in zeros]:
            if s < ROW_SLOTS:
                row *= _PATTERN[b, s]
            else:
                idx[s - ROW_SLOTS] = b
        rows = self._sums[: 1 << k].reshape((2,) * (k - ROW_SLOTS) + (1 << ROW_SLOTS,))
        rows[tuple(reversed(idx))] += row
        return (1 << k) >> (1 + len(zeros))

    # ---- incremental updates -------------------------------------------

    def apply_arc_delta(self, u: NodeId, v: NodeId, x: Money) -> None:
        """Record that ``u`` must pay ``x`` to ``v`` and repair the sums.

        ``x`` must be a positive ``int``.  Both signs of the int64 range,
        the slot capacity and the table budget are checked on the
        prospective balances before anything changes, so a rejected arc
        leaves the engine as it was.  An endpoint whose balance returns to
        zero leaves its slot first, which may move the top slot's sums
        down.  Then each endpoint live before and after has ``x`` (or
        ``-x``) added to its view "this endpoint set, the other clear", or
        "this endpoint set" when the other is not live.  Last, a fresh
        endpoint enters at slot k by one doubling step, which sees the
        patched sums.  Departures and entries go in arc order, unless
        ``v`` settles.  With K the larger of k before and after, each move
        or patched view holds at most ``2^(K - 2)`` entries, an entry
        writes at most ``2^(K - 1)``, and at most ``3 * 2^(K - 2)`` are
        touched.
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

        # departures, patches, entries: an entering endpoint never widens
        # the table past the final k, and its doubling step copies sums
        # that are already patched
        ends = [(u, du, new_u, x), (v, dv, new_v, -x)]
        if not new_v:
            ends.reverse()
        touched = 0
        for w, _, new, _ in ends:
            if not new:
                touched += self._set_balance(w, 0)
        stay = [(w, new, delta) for w, old, new, delta in ends if old and new]
        slots = [self._slot_of_node[w] for w, _, _ in stay]
        for (w, new, delta), s in zip(stay, slots):
            self._set_balance(w, new)
            touched += self._patch(delta, s, [t for t in slots if t != s])
        for w, old, new, _ in ends:
            if new and not old:
                touched += self._set_balance(w, new)
        self._touched_last = touched

    # ---- batch construction ---------------------------------------------

    def rebuild_from_debts(self, debts: Mapping[NodeId, Money]) -> None:
        """Reset the engine to the given balances in one batch pass.

        Every balance must be an ``int``; that, the slot capacity, the
        table budget and both signs of the int64 range are checked before
        anything changes.  Nonzero-balance nodes then enter in ascending
        node order, each by the doubling step of ``_set_balance``, into a
        fresh table of ``2^k`` entries.
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

        sums = _take_table(1 << k)
        sums[0] = 0
        _release_table(self._sums)
        self._sums = sums
        self._node_of_slot = []
        self._slot_of_node = {}
        self._debts = {}
        for u, d in nonzero:
            self._set_balance(u, d)
        self._touched_last = 0

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

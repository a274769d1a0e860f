"""Incremental subset-sum engine over the nonzero-balance node set.

The engine rests on one invariant: the k nodes whose net balance is
nonzero hold slots 0..k-1, so every subset of them is a mask below
``2^k``.  ``SubsetSumEngine._set_balance`` is the one place that changes
a balance, and so the one place that keeps the invariant: a node entering
takes slot k, and a node leaving hands its slot to the node in the top
slot.  Next to the slots the engine keeps a dense array whose prefix of
``2^k`` entries holds, for every subset of live slots, the sum of member
balances.

``SubsetSumEngine._refresh`` is the one writer of that array.  The
entries below ``2^j`` depend only on slots below j, so after a change
whose lowest changed slot (a new balance or a new node) is j0, the
doubling step ``sums[2^j : 2^(j+1)] = sums[:2^j] + d_j``, run for
j = j0..k-1, makes the table exact again.  It writes ``2^k - 2^j0``
entries, each step one contiguous pass; a batch rebuild is the same run
from j0 = 0.

The refresh is bound by memory bandwidth, so the array is held in the
narrowest of int8, int16, int32 and int64 whose range holds both the
positive and the negative total of the balances (``_check_range``).
Every subset sum lies between those totals, so no entry can wrap.  A
refresh from slot 0 rewrites every entry anyway, so it takes exactly
that width; one from a higher slot keeps the width unless the balances
need a wider one.  The balances are added as Python ints, which numpy
2's weak scalars (NEP 50) take at the array's width; each balance lies
in that width's range.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .bits import bit_positions, check_slots
from .errors import (
    AmountError,
    ContractError,
    LoopError,
    MoneyOverflowError,
    StaleMaskError,
)
from .model import Money, NodeId, _check_amount

# the table widths, narrowest first, each with its range as Python ints:
# the range check runs on every arc and makes no numpy call
_WIDTHS = tuple(
    (np.dtype(t), int(np.iinfo(t).min), int(np.iinfo(t).max))
    for t in (np.int8, np.int16, np.int32, np.int64)
)


def _new_table(nbytes: int) -> np.ndarray:
    """An uninitialised raw table buffer of ``nbytes`` bytes."""
    return np.empty(nbytes, dtype=np.uint8)


def _check_range(balances: Iterable[Money]) -> np.dtype:
    """The narrowest table width that holds both totals of the balances.

    Every subset sum lies between the negative and the positive total,
    so a table of that width holds every entry.  Balances whose total
    leaves the int64 range, the money range, are refused with
    ``MoneyOverflowError``.  The balances must be ``int``s: a numpy
    scalar would wrap while being summed.
    """
    pos = neg = 0
    for d in balances:
        if d > 0:
            pos += d
        else:
            neg += d
    for dtype, lo, hi in _WIDTHS:
        if lo <= neg and pos <= hi:
            return dtype
    raise MoneyOverflowError("balances would exceed the signed 64-bit range")


class SubsetSumEngine:
    """Net balances plus subset sums over the nonzero-balance nodes.

    The k nodes with a nonzero balance hold slots 0..k-1;
    ``_set_balance`` alone enters and leaves slots, and ``_refresh``
    alone writes sums, once per mutating call.  The live sums, ``_sums``,
    view the first ``2^k`` entries of one raw byte buffer, which grows
    when the live table outgrows it and never shrinks, so a change of
    width or a batch rebuild allocates nothing when it fits.  The entries
    are int8, int16, int32 or int64.  Every rewrite from slot 0 (an arc
    or departure that changes slot 0, a widening, a batch rebuild) takes
    the narrowest width whose range holds both totals of the balances;
    any other keeps the width unless the totals outgrow it, which makes
    it a rewrite from slot 0.  ``bits.SLOTS_MAX`` (24) is the one bound on
    k: an arc or rebuild that would leave more nonzero balances is
    refused with ``CapacityError`` before anything changes or is
    allocated, whatever width the balances need.  At the bound the table
    holds at most 128 MiB (int64) and the zero mask 16 MiB.

    The zero mask, one read-only ``bool`` per live mask (``2^k`` bytes),
    lives from the first ``zero_mask`` or ``zero_sets`` after a write to
    the next ``_refresh``, the one place that drops it; departures read it
    as it is, queries as the list ``zero_sets``.  Filling it is
    idempotent, so concurrent reads of a frozen engine stay safe.
    """

    def __init__(self) -> None:
        self._buf = np.zeros(1, dtype=np.uint8)
        self._sums = self._buf.view(np.int8)
        self._zero: np.ndarray | None = None
        self._node_of_slot: list[NodeId] = []
        self._slot_of_node: dict[NodeId, int] = {}
        self._debts: dict[NodeId, Money] = {}
        self._touched_last = 0

    # ---- read access -------------------------------------------------

    @property
    def live_mask(self) -> int:
        """Mask of slots currently held by nonzero-balance nodes."""
        return (1 << len(self._node_of_slot)) - 1

    @property
    def vstar_size(self) -> int:
        return len(self._node_of_slot)

    @property
    def last_touched_sums(self) -> int:
        """Sums entries written by the most recent mutating call.

        That is ``2^k - 2^j0``, k being the live slots after the call and
        j0 the lowest slot whose balance or node it changed (k when it
        changed none).
        """
        return self._touched_last

    @property
    def table_bytes(self) -> int:
        """Bytes of the live sums table at its width: ``2^k`` entries."""
        return self._sums.itemsize << len(self._node_of_slot)

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
        lies outside the live table and is rejected.
        """
        if mask & ~self.live_mask:
            raise StaleMaskError(f"mask {mask:#x} is not contained in the live mask")
        return int(self._sums[mask])

    def zero_mask(self) -> np.ndarray:
        """``sums[:2^k] == 0``, one read-only ``bool`` per live mask.

        The first read after a write scans the table; every read until
        the next write returns that same array.
        """
        zero = self._zero
        if zero is None:
            zero = self._sums == 0
            zero.flags.writeable = False  # before another reader can see it
            self._zero = zero
        return zero

    def zero_sets(self) -> np.ndarray:
        """All nonempty subsets of the live mask with zero balance sum.

        They are the positions of the zero entries of the live table, as
        a strictly ascending ``int64`` array, without position 0: the
        empty set, whose sum is always zero.  They are read from
        ``zero_mask``, so the table is scanned once per state.
        """
        return np.flatnonzero(self.zero_mask())[1:]

    # ---- the slot books and the one sums writer -------------------------

    def _set_balance(self, u: NodeId, d: Money) -> int:
        """Give ``u`` the balance ``d``, entering or leaving a slot to match.

        Only the books change; the sums are ``_refresh``'s.  A node
        gaining a nonzero balance takes slot k, and a node whose balance
        returns to zero hands its slot to the node in the top slot, which
        is dropped.  Returns the lowest slot whose balance or node changed
        (a dropped top slot counts as its own number).  Callers check the
        slot bound first.
        """
        if d == 0:
            del self._debts[u]
            s = self._slot_of_node.pop(u)
            top = self._node_of_slot.pop()
            if top != u:
                self._node_of_slot[s] = top
                self._slot_of_node[top] = s
            return s
        self._debts[u] = d
        s = self._slot_of_node.get(u)
        if s is None:
            s = self._slot_of_node[u] = len(self._node_of_slot)
            self._node_of_slot.append(u)
        return s

    def _refresh(self, j0: int, dtype: np.dtype) -> int:
        """Rewrite the live sums of every mask that holds a slot j0 or above.

        Runs the doubling step ``sums[2^j : 2^(j+1)] = sums[:2^j] + d_j``
        for j = j0..k-1; the entries below ``2^j0`` must already be exact.
        ``dtype`` is the narrowest width the balances need.  A refresh from
        j0 = 0 takes it; one from j0 > 0 keeps the table's width, unless
        ``dtype`` is wider and the refresh runs from j0 = 0 instead.  A
        buffer too short for ``2^k`` entries is replaced by one of exactly
        that size, which takes over only the entries below ``2^j0``.
        Returns the entries written, ``2^k - 2^j0``, and drops the zero
        mask of the old state.
        """
        self._zero = None
        sums, k = self._sums, len(self._node_of_slot)
        if j0 and dtype.itemsize <= sums.itemsize:
            dtype, kept = sums.dtype, sums.itemsize << j0
        else:
            j0 = kept = 0
        if len(sums) != 1 << k or sums.dtype != dtype:
            nbytes = dtype.itemsize << k
            if len(self._buf) < nbytes:
                buf = _new_table(nbytes)
                buf[:kept] = self._buf[:kept]
                self._buf = buf
            sums = self._sums = self._buf[:nbytes].view(dtype)
        sums[0] = 0  # the empty set; the buffer may hold anything
        for j in range(j0, k):
            np.add(sums[: 1 << j], self._debts[self._node_of_slot[j]], out=sums[1 << j : 2 << j])
        return (1 << k) - (1 << j0)

    # ---- incremental updates -------------------------------------------

    def apply_arc_delta(self, u: NodeId, v: NodeId, x: Money) -> None:
        """Record that ``u`` must pay ``x`` to ``v`` and repair the sums.

        ``x`` must be a positive ``int``.  Both signs of the int64 range
        and the slot bound are checked on the prospective balances
        before anything changes, so a rejected arc leaves the engine, and
        its table's width, as they were.  An endpoint whose balance
        returns to zero leaves its slot first (``v`` first when both do),
        then the others keep or enter theirs in arc order.  One
        ``_refresh`` from the lowest slot j0 that changed then writes
        ``2^k - 2^j0`` sums: an arc between the two top slots writes
        ``3 * 2^(k - 2)``, and one whose endpoint holds slot 0 rewrites
        the whole table in the narrowest width, as does one whose totals
        outgrow the table's width.
        """
        if u == v:
            raise LoopError(f"arc from node {u} to itself")
        _check_amount("arc", x)

        du = self._debts.get(u, 0)
        dv = self._debts.get(v, 0)
        new_u = du + x
        new_v = dv - x
        dtype = _check_range({**self._debts, u: new_u, v: new_v}.values())
        # an endpoint that settles frees its slot before a fresh one takes it
        k = self.vstar_size + (du == 0) + (dv == 0) - (new_u == 0) - (new_v == 0)
        check_slots(k, "the sums table")

        ends = [(u, new_u), (v, new_v)]
        if not new_v:
            ends.reverse()
        ends.sort(key=lambda end: end[1] != 0)  # departures first, stably
        self._touched_last = self._refresh(min(self._set_balance(w, d) for w, d in ends), dtype)

    # ---- batch construction ---------------------------------------------

    def rebuild_from_debts(self, debts: Mapping[NodeId, Money]) -> None:
        """Reset the engine to the given balances in one batch pass.

        Every balance must be an ``int``; that, the slot bound and both
        signs of the int64 range are checked, in that order, before
        anything changes.  Nonzero-balance nodes then take slots in
        ascending node order, and ``_refresh(0)`` rewrites the table in
        the narrowest width the balances need, writing ``2^k - 1`` sums.
        """
        for d in debts.values():
            if type(d) is not int:
                raise AmountError(f"balance must be an integer, got {d!r}")
        nonzero = sorted((u, d) for u, d in debts.items() if d != 0)
        k = len(nonzero)
        check_slots(k, "the sums table")
        dtype = _check_range(d for _, d in nonzero)

        self._node_of_slot = []
        self._slot_of_node = {}
        self._debts = {}
        for u, d in nonzero:
            self._set_balance(u, d)
        self._touched_last = self._refresh(0, dtype)

    # ---- block removal ---------------------------------------------------

    def clear_block(self, mask: int) -> None:
        """Zero the balances of every slot in ``mask`` and free the slots.

        Used after a zero-sum group has been settled.  Slots are freed
        highest first, so the slots of ``mask`` not yet freed keep their
        numbers, and a slot whose higher neighbours were all in ``mask``
        is the top when freed; any other freed slot takes over the top
        slot's node.  One ``_refresh`` from the lowest freed slot j0 then
        writes ``2^k - 2^j0`` sums, none when ``mask`` is the top block,
        and the whole table in the narrowest width when j0 is 0.
        """
        if mask & ~self.live_mask:
            raise ContractError(f"mask {mask:#x} is not contained in the live mask")
        freed = [self._set_balance(self._node_of_slot[s], 0) for s in reversed(bit_positions(mask))]
        j0 = min(freed, default=self.vstar_size)
        self._touched_last = self._refresh(j0, _check_range(self._debts.values()))

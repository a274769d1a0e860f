"""Shared helpers for the test suite.

The audit helpers here deliberately avoid the engine's incremental code
paths: sums are recomputed by per-bit accumulation and zero sets by
plain enumeration, so they can serve as independent ground truth.
"""

from __future__ import annotations

import numpy as np

from debtclear import Borrowing, SplitMix64
from debtclear.bits import MASK_DTYPE, bit_positions
from debtclear.engine import SubsetSumEngine

EXAMPLE1 = [
    Borrowing(1, 2, 10),
    Borrowing(2, 3, 5),
    Borrowing(3, 1, 5),
    Borrowing(1, 4, 5),
    Borrowing(4, 5, 10),
]

# balances of EXAMPLE1, checked by hand from the arc list
EXAMPLE1_BALANCES = {1: 10, 2: -5, 3: 0, 4: 5, 5: -10}


def live_submasks(engine: SubsetSumEngine) -> np.ndarray:
    """Every submask of the live mask, ascending, by plain enumeration."""
    m = np.arange(1 << len(engine.node_slots()), dtype=MASK_DTYPE)
    return m[(m & ~engine.live_mask) == 0]


def audit_sums(engine: SubsetSumEngine) -> bool:
    """True iff every live-mask sums entry matches direct summation.

    The expected side is per-node accumulation, independent of both the
    engine's incremental patching and its batch recurrence.  The stored
    side is read straight off the array (read-only white box) so audits
    stay cheap enough to run after every operation.
    """
    subs = live_submasks(engine)
    expect = np.zeros(len(subs), dtype=np.int64)
    for u, d in engine.balances().items():
        bit = 1 << engine.slot_of(u)
        expect[(subs & MASK_DTYPE(bit)) != 0] += d
    return bool(np.array_equal(engine._sums[subs], expect))


def brute_zero_node_sets(debts: dict[int, int]) -> set[frozenset[int]]:
    """All nonempty zero-sum subsets of the nonzero-balance nodes."""
    nodes = sorted(u for u, d in debts.items() if d != 0)
    out = set()
    for mask in range(1, 1 << len(nodes)):
        members = [nodes[i] for i in bit_positions(mask)]
        if sum(debts[u] for u in members) == 0:
            out.add(frozenset(members))
    return out


def slot_balances(engine: SubsetSumEngine) -> list[int]:
    """Balance of each slot, in slot order: what ``clear_pairs`` reads."""
    return [engine.debt(u) for u in engine.node_slots()]


def nodes_of_mask(engine: SubsetSumEngine, mask: int) -> frozenset[int]:
    slots = engine.node_slots()
    return frozenset(slots[i] for i in bit_positions(mask))


def mask_of_nodes(engine: SubsetSumEngine, nodes) -> int:
    mask = 0
    for u in nodes:
        mask |= 1 << engine.slot_of(u)
    return mask


def engine_digest(engine: SubsetSumEngine):
    """Observable state: balances, slot layout, and live-mask sums."""
    subs = live_submasks(engine)
    return (
        tuple(sorted(engine.balances().items())),
        engine.live_mask,
        engine.node_slots(),
        engine._sums[subs].tobytes(),
    )


def random_instance(seed: int, max_n: int = 9, max_m: int = 30, max_w: int = 10):
    """Seeded random instance; returns (n, arcs)."""
    rng = SplitMix64(seed)
    n = rng.randint(2, max_n)
    m = rng.randint(1, max_m)
    arcs = []
    for _ in range(m):
        u = rng.randint(0, n - 1)
        v = rng.randint(0, n - 2)
        if v >= u:
            v += 1
        arcs.append(Borrowing(u, v, rng.randint(1, max_w)))
    return n, arcs


def growth_balances(k: int, seed: int) -> list[int]:
    """k seeded balances, even positives against odd negatives, all at most 18.

    Parity rules out every zero-sum pair, yet many larger zero sets
    remain.  The negatives are an even count, so the totals can match.
    """
    rng = SplitMix64(seed)
    neg_count = k // 2 - (k // 2) % 2
    while True:
        neg = [-(2 * rng.randint(0, 8) + 1) for _ in range(neg_count)]
        pos = [2 * rng.randint(1, 9) for _ in range(k - neg_count - 1)]
        last = -sum(neg) - sum(pos)
        if 2 <= last <= 18:
            return neg + pos + [last]


def hub_arcs(balances: list[int]) -> list[Borrowing]:
    """Borrowings that give node i ``balances[i]`` through a hub node k."""
    hub = len(balances)
    return [Borrowing(i, hub, d) if d > 0 else Borrowing(hub, i, -d) for i, d in enumerate(balances)]

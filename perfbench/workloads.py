"""Seeded inputs for the debtclear benchmark workloads.

Every workload is a family of inputs drawn from ``--seed``; the family
fixes the properties the solver's cost depends on: k, the number of
nonzero balances, and how many zero-sum subsets those balances admit.
The program under test only ever sees the borrowings and operations
generated here.  The random source is ``debtclear.SplitMix64``.
"""

from __future__ import annotations

from dataclasses import dataclass

# static-dense: k fixed at 16 so the median does not straddle the cost
# modes of neighbouring k (each extra balance roughly doubles a solve).
# Positives are even values 2..18 and negatives odd values 1..19, the
# profile of suite cases 13 and 14: parity rules out every zero-sum pair,
# so the pair reduction does nothing and the atom pass plus the DP carry
# the cost.  The count of negatives must be even for the odd values to
# reach the even total.
DENSE_K = 16
DENSE_HALF_RANGE = 9
DENSE_POOL = 400

# static-sparse: k = 20 with large, distinct magnitudes (random 32..40
# bit values), so, as in suite case 4, no proper subset sums to zero and
# the cost is the 2^k table build and scan, not the DP.
SPARSE_K = 20
SPARSE_LO = 1 << 32
SPARSE_HI = 1 << 40
SPARSE_POOL = 1500

# ledger-stream: one Ledger with 20 seats (live nodes); at 24 live nodes
# an update costs tens of times more, so the seat count stays at 20.
# Query and departure costs spread over two decades from one state to the
# next, so their medians need many states per run: cancellations (each
# zeroes a balance) keep k mostly between 12 and 18 and the balances
# small, where states are cheap and the run forgets them quickly.  A
# departure waits until exactly DEPART_K balances are open, since its cost
# doubles with each one.
SEATS = 20
WARMUP_ARCS = 40
MAX_WEIGHT = 10
REMOVE_ARC_PERCENT = 40
QUERY_EVERY = 10
DEPART_EVERY = 20
DEPART_K = 16
STREAM_UPDATES = 12000


@dataclass(frozen=True)
class Instance:
    """One static problem: borrowings over nodes ``0..n-1``.

    ``balances[u]`` is the net balance the borrowings give node ``u``;
    ``leaver`` is the node that departs when the instance is replayed on
    a ``Ledger``.
    """

    n: int
    arcs: tuple
    balances: tuple[int, ...]
    leaver: int


@dataclass(frozen=True)
class Step:
    """One ledger-stream operation on seats (not node ids).

    ``op`` is ``insert_arc`` (seat ``a`` owes ``x`` to seat ``b``),
    ``remove_arc`` (between seats ``a`` and ``b``), ``query``, or
    ``depart``: once ``DEPART_K`` balances are open, the first seat from
    ``a`` on with a nonzero balance leaves and a fresh node takes its seat.
    """

    op: str
    a: int = 0
    b: int = 0
    x: int = 0


@dataclass(frozen=True)
class Stream:
    """Arcs that bring a fresh 20-seat ledger to its starting state,
    then the measured steps (replayed cyclically if a run outlasts them)."""

    warmup: tuple[Step, ...]
    steps: tuple[Step, ...]


def _shuffle(rng, items: list) -> list:
    for i in range(len(items) - 1, 0, -1):
        j = rng.randint(0, i)
        items[i], items[j] = items[j], items[i]
    return items


def settling_arcs(dc, balances) -> list:
    """Borrowings over nodes ``0..len(balances)-1`` with exactly these
    balances: each debtor in turn pays the current creditor what finishes
    one of them."""
    debtors = [[u, b] for u, b in enumerate(balances) if b > 0]
    creditors = [[u, -b] for u, b in enumerate(balances) if b < 0]
    arcs = []
    i = j = 0
    while i < len(debtors) and j < len(creditors):
        x = min(debtors[i][1], creditors[j][1])
        arcs.append(dc.Borrowing(debtors[i][0], creditors[j][0], x))
        debtors[i][1] -= x
        creditors[j][1] -= x
        if debtors[i][1] == 0:
            i += 1
        if creditors[j][1] == 0:
            j += 1
    return arcs


def dense_balances(rng) -> list[int]:
    k, h = DENSE_K, DENSE_HALF_RANGE
    q = k // 2 + (k // 2) % 2
    while True:
        pos = [2 * rng.randint(1, h) for _ in range(k - q)]
        neg = [2 * rng.randint(0, h) + 1 for _ in range(q - 1)]
        last = sum(pos) - sum(neg)
        if 1 <= last <= 2 * h + 1:
            return pos + [-v for v in neg] + [-last]


def sparse_balances(rng) -> list[int]:
    k = SPARSE_K
    while True:
        vals = [rng.randint(SPARSE_LO, SPARSE_HI) * (-1) ** i for i in range(k - 1)]
        vals.append(-sum(vals))
        if vals[-1] != 0 and len({abs(v) for v in vals}) == k:
            return vals


def _instance(dc, rng, balances: list[int]) -> Instance:
    balances = _shuffle(rng, balances)
    arcs = _shuffle(rng, settling_arcs(dc, balances))
    n = len(balances)
    return Instance(n, tuple(arcs), tuple(balances), rng.randint(0, n - 1))


def static_pool(dc, seed: int, dense: bool) -> list[Instance]:
    rng = dc.SplitMix64(seed)
    if dense:
        return [_instance(dc, rng, dense_balances(rng)) for _ in range(DENSE_POOL)]
    return [_instance(dc, rng, sparse_balances(rng)) for _ in range(SPARSE_POOL)]


def _arc_step(rng, remove_percent: int) -> Step:
    a = rng.randint(0, SEATS - 1)
    b = rng.randint(0, SEATS - 2)
    if b >= a:
        b += 1
    if rng.randint(0, 99) < remove_percent:
        return Step("remove_arc", a, b)
    return Step("insert_arc", a, b, rng.randint(1, MAX_WEIGHT))


def ledger_stream(dc, seed: int, updates: int = STREAM_UPDATES) -> Stream:
    rng = dc.SplitMix64(seed)
    warmup = tuple(_arc_step(rng, 0) for _ in range(WARMUP_ARCS))
    steps = []
    for i in range(1, updates + 1):
        steps.append(_arc_step(rng, REMOVE_ARC_PERCENT))
        if i % QUERY_EVERY == 0:
            steps.append(Step("query"))
        if i % DEPART_EVERY == 0:
            steps.append(Step("depart", rng.randint(0, SEATS - 1)))
    return Stream(warmup, tuple(steps))

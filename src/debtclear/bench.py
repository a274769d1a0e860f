"""Benchmark harness: the 15 case generators and their timing.

The 15 generated structures follow the classic contest suite for this
problem: paths, cycles, stars, pair- and triple-heavy balance profiles,
and random multigraphs.  Structured cases (1-6, 13, 14) pin the balance
vector exactly and therefore have known optimal plan sizes; the random
ones (7-12, 15) are seeded and checked against the exact oracle
where it fits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import BenchError, CapacityError
from .ledger import Ledger, QueryStats, solve_static_with_stats
from .model import Borrowing

DEFAULT_SEED = 1

_U64 = (1 << 64) - 1


class SplitMix64:
    """Tiny portable PRNG (splitmix64).

    state' = state + 0x9E3779B97F4A7C15 (mod 2^64); the output is the new
    state scrambled by two xor-shift/multiply rounds.  Chosen over the
    stdlib generator so the seeded cases are reproducible bit-for-bit by
    any implementation of this harness, in any language.
    """

    def __init__(self, seed: int):
        self._state = seed & _U64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _U64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo reduction; the tiny
        bias is irrelevant for test-case generation)."""
        return lo + self.next_u64() % (hi - lo + 1)


# test id -> (n, m, known optimal plan size or None, description)
CASE_TABLE: dict[int, tuple[int, int, int | None, str]] = {
    1: (20, 19, 1, "path, equal weights"),
    2: (20, 20, 0, "cycle, equal weights"),
    3: (8, 7, 7, "star whose optimal plan equals the input"),
    4: (20, 19, 19, "two connected stars, no proper zero-sum subset"),
    5: (20, 15, 15, "ten +2 balances, nine -1, one -11 (triple-heavy)"),
    6: (20, 10, 10, "ten +99 balances, ten -99 (pair-heavy)"),
    7: (20, 19, None, "path, weights 50 +/- 10"),
    8: (20, 20, None, "cycle, weights 50 +/- 10"),
    9: (10, 100, None, "random multigraph, weights <= 10"),
    10: (12, 100, None, "random multigraph, weights <= 10"),
    11: (15, 100, None, "random multigraph, weights <= 10"),
    12: (20, 100, None, "random multigraph, weights <= 10"),
    13: (20, 19, 15, "path, weights 1..19 in zigzag order"),
    14: (20, 30, 15, "ten pairs, a path, a star and three triples"),
    15: (20, 100, None, "dense random graph, weights <= 3"),
}

# Path weights for case 13: the set 1..19 arranged so consecutive
# differences alternate sign.  The resulting balances are the even values
# 2..18 (10 up, with one duplicate) against the odd values 1..19 (10 down),
# which admit exactly five zero-sum groups: no pair or triple can balance
# (parity), and group-size counting rules out six parts.
_ZIGZAG_WEIGHTS = [10, 9, 11, 8, 12, 7, 13, 6, 14, 5, 15, 4, 16, 3, 17, 2, 18, 1, 19]


@dataclass(frozen=True)
class CaseSpec:
    """One benchmark case; n, m and the known optimum are read from the suite table."""

    test_id: int
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        # a bool or float equal to an id would pass the table lookup
        if type(self.test_id) is not int or self.test_id not in CASE_TABLE:
            raise BenchError(f"unknown test id {self.test_id!r}")
        if type(self.seed) is not int:
            raise BenchError(f"seed must be an integer, got {self.seed!r}")

    @property
    def n(self) -> int:
        return CASE_TABLE[self.test_id][0]

    @property
    def m(self) -> int:
        return CASE_TABLE[self.test_id][1]

    @property
    def expected_amin(self) -> int | None:
        return CASE_TABLE[self.test_id][2]


def _rng_for(spec: CaseSpec) -> SplitMix64:
    # one independent stream per (seed, test); same mixing constant as the PRNG
    return SplitMix64(spec.seed ^ (spec.test_id * 0x9E3779B97F4A7C15))


def _random_multigraph(spec: CaseSpec, max_weight: int) -> list[Borrowing]:
    rng = _rng_for(spec)
    arcs = []
    for _ in range(spec.m):
        u = rng.randint(0, spec.n - 1)
        v = rng.randint(0, spec.n - 2)
        if v >= u:
            v += 1
        arcs.append(Borrowing(u, v, rng.randint(1, max_weight)))
    return arcs


def generate_case(spec: CaseSpec) -> tuple[int, list[Borrowing]]:
    """Build the arc list for one case.  Deterministic for a fixed seed;
    the structured cases ignore the seed entirely."""
    t = spec.test_id
    n = spec.n
    if t == 1:
        arcs = [Borrowing(i, i + 1, 50) for i in range(n - 1)]
    elif t == 2:
        arcs = [Borrowing(i, i + 1, 50) for i in range(n - 1)]
        arcs.append(Borrowing(n - 1, 0, 50))
    elif t == 3:
        arcs = [Borrowing(0, j, j) for j in range(1, 8)]
    elif t == 4:
        # connector weight exceeds the second star's total, so no proper
        # subset of balances can cancel and the whole graph is one group
        arcs = [Borrowing(0, j, j) for j in range(1, 10)]
        arcs.append(Borrowing(0, 10, 50))
        arcs += [Borrowing(10, 10 + j, j) for j in range(1, 10)]
    elif t == 5:
        arcs = [Borrowing(i, 19, 2) for i in range(5)]
        arcs += [
            Borrowing(5 + i, 10 + 2 * i, 1) for i in range(5)
        ] + [
            Borrowing(5 + i, 11 + 2 * i, 1) for i in range(5)
        ]
        arcs.sort(key=lambda b: (b.borrower, b.lender))
    elif t == 6:
        arcs = [Borrowing(i, 10 + i, 99) for i in range(10)]
    elif t == 7:
        rng = _rng_for(spec)
        arcs = [Borrowing(i, i + 1, rng.randint(40, 60)) for i in range(n - 1)]
    elif t == 8:
        rng = _rng_for(spec)
        arcs = [Borrowing(i, i + 1, rng.randint(40, 60)) for i in range(n - 1)]
        arcs.append(Borrowing(n - 1, 0, rng.randint(40, 60)))
    elif t in (9, 10, 11, 12):
        arcs = _random_multigraph(spec, 10)
    elif t == 13:
        arcs = [Borrowing(i, i + 1, _ZIGZAG_WEIGHTS[i]) for i in range(n - 1)]
    elif t == 14:
        # overlay on 20 nodes; the final balances are the same even/odd
        # profile as case 13, so the optimum is again five groups
        pair_amounts = [3, 5, 7, 9, 11, 13, 15, 19, 8, 10]
        arcs = [Borrowing(i, 10 + i, pair_amounts[i]) for i in range(10)]
        arcs += [Borrowing(i, i - 1, i) for i in range(1, 9)]  # path
        star_leaves = [10, 11, 12, 13, 14, 15]
        star_weights = [2, 1, 1, 1, 1, 1]
        arcs += [Borrowing(18, l, w) for l, w in zip(star_leaves, star_weights)]
        arcs += [Borrowing(l, 19, w) for l, w in zip(star_leaves, star_weights)]
    elif t == 15:
        arcs = _random_multigraph(spec, 3)
    else:  # pragma: no cover - table and dispatch stay in sync
        raise BenchError(f"unknown test id {t}")
    assert len(arcs) == spec.m
    return n, arcs


# ---- benchmark runs ----------------------------------------------------------

@dataclass(frozen=True)
class BenchRow:
    test_id: int
    algorithm: str
    mode: str
    reps: int
    avg_seconds: float
    plan_size: int
    avg_vstar: float
    avg_s0: float
    avg_s0_reduced: float


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def to_csv(self) -> str:
        out = ["test,algorithm,mode,reps,avg_seconds,plan_size,avg_vstar,avg_s0,avg_s0_reduced"]
        for r in self.rows:
            out.append(
                f"{r.test_id},{r.algorithm},{r.mode},{r.reps},{r.avg_seconds:.6f},"
                f"{r.plan_size},{r.avg_vstar:.3f},{r.avg_s0:.3f},{r.avg_s0_reduced:.3f}"
            )
        return "\n".join(out) + "\n"


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _run_static(n: int, arcs: list[Borrowing]) -> tuple[int, list[QueryStats], float]:
    t0 = time.perf_counter()
    plan, stats = solve_static_with_stats(arcs, n)
    return len(plan), [stats], time.perf_counter() - t0


def _run_dynamic(
    n: int, arcs: list[Borrowing], per_arc: bool
) -> tuple[int, list[QueryStats], float]:
    t0 = time.perf_counter()
    ledger = Ledger()
    ids = [ledger.insert_node() for _ in range(n)]
    stats: list[QueryStats] = []
    plan = None
    for b in arcs:
        ledger.insert_arc(ids[b.borrower], ids[b.lender], b.amount)
        if per_arc:
            plan, s = ledger.query_with_stats()
            stats.append(s)
    if plan is None:
        plan, s = ledger.query_with_stats()
        stats.append(s)
    return len(plan), stats, time.perf_counter() - t0


def run_benchmark(
    cases: Iterable[CaseSpec],
    repetitions: int = 3,
    mode: str = "once",
) -> BenchReport:
    """Time the static solver and the incremental ledger over the given cases.

    Each case gets a ``static`` row, then a ``dynamic-incremental`` row.
    ``mode`` applies to the ledger: ``once`` queries after all arcs are
    inserted, ``per-arc`` queries after every insertion.  Plan sizes must
    agree between the two (and with the case's known optimum when there
    is one); disagreement is a hard error.  Capacity errors are reported
    as warnings without aborting the remaining cases.
    """
    if type(repetitions) is not int or repetitions < 1:
        raise BenchError(f"repetitions must be an integer of at least 1, got {repetitions!r}")
    if mode not in ("once", "per-arc"):
        raise BenchError(f"unknown mode {mode!r}")

    report = BenchReport()
    for spec in cases:
        n, arcs = generate_case(spec)
        sizes: dict[str, int] = {}
        rows: list[BenchRow] = []
        try:
            for alg in ("static", "dynamic-incremental"):
                times = []
                for _ in range(repetitions):
                    if alg == "static":
                        size, stats, dt = _run_static(n, arcs)
                    else:
                        size, stats, dt = _run_dynamic(n, arcs, mode == "per-arc")
                    times.append(dt)
                sizes[alg] = size
                rows.append(
                    BenchRow(
                        test_id=spec.test_id,
                        algorithm=alg,
                        mode=mode,
                        reps=repetitions,
                        avg_seconds=_mean(times),
                        plan_size=size,
                        avg_vstar=_mean([s.vstar_size for s in stats]),
                        avg_s0=_mean([s.zero_set_count for s in stats]),
                        avg_s0_reduced=_mean([s.reduced_zero_set_count for s in stats]),
                    )
                )
        except CapacityError as exc:
            report.warnings.append(f"test {spec.test_id}: {exc}")
            continue
        if len(set(sizes.values())) > 1:
            raise BenchError(f"test {spec.test_id}: plan sizes disagree: {sizes}")
        if spec.expected_amin is not None and set(sizes.values()) != {spec.expected_amin}:
            raise BenchError(
                f"test {spec.test_id}: plan size {set(sizes.values())} != "
                f"known optimum {spec.expected_amin}"
            )
        report.rows.extend(rows)
    return report

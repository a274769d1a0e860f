"""Benchmark harness: instance files, operation scripts, generators, timing.

The 15 generated structures follow the classic contest suite for this
problem: paths, cycles, stars, pair- and triple-heavy balance profiles,
and random multigraphs.  Structured cases (1-6, 13, 14) pin the balance
vector exactly and therefore have known optimal plan sizes; the random
ones (7-12, 15) are seeded and checked against the exhaustive oracle
where it fits.
"""

from __future__ import annotations

import io
import re
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import BenchError, CapacityError, ParseError, ScriptError
from .ledger import Ledger, QueryStats, solve_static_with_stats
from .model import MONEY_MAX, Borrowing, NodeId, Transaction, TransactionPlan

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
        if self.test_id not in CASE_TABLE:
            raise BenchError(f"unknown test id {self.test_id}")

    @property
    def n(self) -> int:
        return CASE_TABLE[self.test_id][0]

    @property
    def m(self) -> int:
        return CASE_TABLE[self.test_id][1]

    @property
    def expected_amin(self) -> int | None:
        return CASE_TABLE[self.test_id][2]


def case_spec(test_id: int, seed: int = DEFAULT_SEED) -> CaseSpec:
    return CaseSpec(test_id, seed)


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


# ---- static instance files -------------------------------------------------


def parse_static(text: str) -> tuple[int, list[Borrowing]]:
    """Parse contest-style input: ``n m`` then m lines ``borrower lender weight``.

    Node numbers are 1-based in the file and 0-based in the returned
    borrowings.  Every defect is reported with its 1-based line number.
    """
    lines = text.splitlines()
    entries = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if not entries:
        raise ParseError(1, "missing header line 'n m'")
    line_no, header = entries[0]
    fields = header.split()
    if len(fields) != 2:
        raise ParseError(line_no, f"expected 'n m', got {header!r}")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError(line_no, f"expected integers 'n m', got {header!r}") from None
    if n < 0 or m < 0:
        raise ParseError(line_no, "n and m must be non-negative")
    body = entries[1:]
    if len(body) != m:
        raise ParseError(
            body[-1][0] if body else line_no,
            f"expected {m} borrowing lines, found {len(body)}",
        )
    arcs = []
    for line_no, ln in body:
        fields = ln.split()
        if len(fields) != 3:
            raise ParseError(line_no, f"expected 'borrower lender weight', got {ln!r}")
        try:
            b, l, w = (int(f) for f in fields)
        except ValueError:
            raise ParseError(line_no, f"expected three integers, got {ln!r}") from None
        if not (1 <= b <= n) or not (1 <= l <= n):
            raise ParseError(line_no, f"node index out of range 1..{n}")
        if b == l:
            raise ParseError(line_no, "loop: borrower equals lender")
        if w <= 0:
            raise ParseError(line_no, f"weight must be positive, got {w}")
        if w > MONEY_MAX:
            raise ParseError(line_no, f"weight {w} outside signed 64-bit range")
        arcs.append(Borrowing(b - 1, l - 1, w))
    return n, arcs


def format_static(n: int, borrowings: Sequence[Borrowing]) -> str:
    """Canonical text form of a static instance (1-based node numbers)."""
    out = [f"{n} {len(borrowings)}"]
    out += [f"{b.borrower + 1} {b.lender + 1} {b.amount}" for b in borrowings]
    return "\n".join(out) + "\n"


def format_plan(plan: TransactionPlan) -> str:
    """Plan output: count line, then 1-based ``sender receiver amount`` lines."""
    out = [str(len(plan))]
    out += [f"{t.sender + 1} {t.receiver + 1} {t.amount}" for t in plan]
    return "\n".join(out) + "\n"


# ---- operation scripts ------------------------------------------------------

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def run_script(text: str) -> str:
    """Execute an operation script against a fresh ledger.

    Commands (one per line, ``#`` starts a comment):

    * ``NODE name``  - declare a node
    * ``DEL name``   - retire a node; prints ``settle K`` and K payments
    * ``ARC u v x``  - u must pay x to v
    * ``UNARC u v``  - cancel the debt between u and v
    * ``QUERY``      - prints ``query K`` and K payments

    Payments print as ``sender receiver amount`` with declared names,
    ordered by the nodes' declaration order.  The first failing command
    raises ``ScriptError`` with its 1-based command index.
    """
    ledger = Ledger()
    name_of: dict[NodeId, str] = {}
    id_of: dict[str, NodeId] = {}
    out = io.StringIO()

    def emit(tag: str, txns: Iterable[Transaction]) -> None:
        txns = sorted(txns, key=lambda t: (t.sender, t.receiver))
        out.write(f"{tag} {len(txns)}\n")
        for t in txns:
            out.write(f"{name_of[t.sender]} {name_of[t.receiver]} {t.amount}\n")

    commands = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    for idx, line in enumerate(commands, start=1):
        fields = line.split()
        op = fields[0].upper()
        try:
            if op == "NODE" and len(fields) == 2:
                name = fields[1]
                if not _NAME_RE.match(name):
                    raise ScriptError(idx, f"invalid name {name!r}")
                if name in id_of:
                    raise ScriptError(idx, f"name {name!r} already declared")
                node = ledger.insert_node()
                id_of[name] = node
                name_of[node] = name
            elif op == "DEL" and len(fields) == 2:
                node = _lookup(id_of, fields[1], idx)
                emit("settle", ledger.remove_node(node))
                del id_of[fields[1]]
            elif op == "ARC" and len(fields) == 4:
                u = _lookup(id_of, fields[1], idx)
                v = _lookup(id_of, fields[2], idx)
                ledger.insert_arc(u, v, _amount(fields[3], idx))
            elif op == "UNARC" and len(fields) == 3:
                u = _lookup(id_of, fields[1], idx)
                v = _lookup(id_of, fields[2], idx)
                ledger.remove_arc(u, v)
            elif op == "QUERY" and len(fields) == 1:
                emit("query", ledger.query())
            else:
                raise ScriptError(idx, f"unrecognized command {line!r}")
        except ScriptError:
            raise
        except Exception as exc:
            raise ScriptError(idx, str(exc)) from exc
    return out.getvalue()


def _lookup(id_of: dict[str, NodeId], name: str, idx: int) -> NodeId:
    if name not in id_of:
        raise ScriptError(idx, f"unknown node name {name!r}")
    return id_of[name]


def _amount(text: str, idx: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ScriptError(idx, f"invalid amount {text!r}") from None


# ---- benchmark runs ----------------------------------------------------------

ALGORITHMS = ("static", "dynamic-incremental")


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
    algorithms: Sequence[str] = ALGORITHMS,
    repetitions: int = 3,
    mode: str = "once",
) -> BenchReport:
    """Time the requested algorithms over the given cases.

    ``mode`` applies to the dynamic algorithm: ``once`` queries after all
    arcs are inserted, ``per-arc`` queries after every insertion.  Plan
    sizes must agree across algorithms (and with the case's known optimum
    when there is one); disagreement is a hard error.  Capacity errors are
    reported as warnings without aborting the remaining cases.
    """
    if repetitions < 1:
        raise BenchError("repetitions must be at least 1")
    if mode not in ("once", "per-arc"):
        raise BenchError(f"unknown mode {mode!r}")
    for alg in algorithms:
        if alg not in ALGORITHMS:
            raise BenchError(f"unknown algorithm {alg!r}")

    report = BenchReport()
    for spec in cases:
        n, arcs = generate_case(spec)
        sizes: dict[str, int] = {}
        rows: list[BenchRow] = []
        try:
            for alg in algorithms:
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
        if spec.expected_amin is not None and sizes and set(sizes.values()) != {spec.expected_amin}:
            raise BenchError(
                f"test {spec.test_id}: plan size {set(sizes.values())} != "
                f"known optimum {spec.expected_amin}"
            )
        report.rows.extend(rows)
    return report

#!/usr/bin/env python3
"""debtclear benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  One
caller drives the public ``debtclear`` API in a closed loop (each
operation is issued after the previous one returns, no threads) and
times every call from outside.

``--trace 0`` measures for S seconds and prints the end-to-end metrics.
``--trace 1`` replays a fixed, seed-determined prefix of the workload in
alternating plain and traced passes until S seconds are spent, and
prints the per-layer metrics of the traced passes.  Either way the
correctness gate (``gate.py``) checks every recorded output after the
timed loop, and the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results,
with the Python and numpy versions, nproc and the seed, go to
``perfbench/out/``, and the traced run's spans with them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("static-dense", "static-sparse", "ledger-stream")
SETUP_REPS = 5
COVER_STEPS = 2000
# traced passes replay this many steps (instances, or stream steps)
TRACE_STEPS = {"static-dense": 8, "static-sparse": 20, "ledger-stream": 300}

# latency metric -> (operation kind, percentiles); each tail is the highest
# percentile that a 30 s run leaves at least 10 samples beyond, and a run
# that falls short says so on stderr
LATENCIES = {
    "solve_ms": ("solve", (50, 90)),
    "update_ms": ("update", (50, 99)),
    "query_ms": ("query", (50, 90)),
    "remove_node_ms": ("remove_node", (50,)),
}
E2E_UNITS = {
    "setup_s": "s",
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "solves_per_s": "1/s",
    "update_ms_p50": "ms",
    "update_ms_p99": "ms",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "remove_node_ms_p50": "ms",
    "ops_per_s": "1/s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout has no importable debtclear source."""


class OpFailed(Exception):
    """An operation raised; the session has already counted it."""


def import_debtclear():
    """Import debtclear afresh from ``src/`` of this checkout."""
    src = ROOT / "src"
    if not (src / "debtclear" / "__init__.py").is_file():
        raise SetupError(f"no debtclear package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "debtclear" or m.startswith("debtclear.")]:
        del sys.modules[name]
    dc = importlib.import_module("debtclear")
    if Path(dc.__file__).resolve().parent != (src / "debtclear").resolve():
        raise SetupError(f"imported debtclear from {dc.__file__}, not from {src}")
    return dc


class Session:
    """Issues operations and logs each one's kind and latency (None for an
    operation that raised, whose problem is kept).  With a recorder, every
    operation is a root span named ``op.<kind>``."""

    def __init__(self, rec: spans.Recorder | None = None):
        self.rec = rec
        self.log: list[tuple[str, int | None]] = []
        self.problems: list[str] = []

    def call(self, kind: str, fn, *args):
        rec = self.rec
        i = rec.begin("op." + kind) if rec else 0
        t0 = perf_counter_ns()
        try:
            out = fn(*args)
            ns = perf_counter_ns() - t0
        except Exception as exc:  # a failing operation is counted; the run goes on
            self.log.append((kind, None))
            self.problems.append(f"{kind} raised {exc!r}")
            raise OpFailed from exc
        finally:
            if rec:
                rec.end(i)
        self.log.append((kind, ns))
        return out


def _direct(kind, fn, *args):
    return fn(*args)


class StaticReplay:
    """Settles each instance twice: in batch with ``solve_static``, then on
    a fresh ``Ledger`` (one ``insert_node`` per node, one ``insert_arc`` per
    borrowing, a ``query``, and the departure of the instance's leaver)."""

    def __init__(self, dc, pool):
        self.dc = dc
        self.pool = pool
        self.records = []

    def step(self, sess: Session, i: int) -> None:
        dc = self.dc
        inst = self.pool[i % len(self.pool)]
        plan = sess.call("solve", dc.solve_static, inst.arcs, inst.n)
        ledger = dc.Ledger()
        ids = [sess.call("insert_node", ledger.insert_node) for _ in range(inst.n)]
        for b in inst.arcs:
            sess.call("update", ledger.insert_arc, ids[b.borrower], ids[b.lender], b.amount)
        before = ledger.debts
        query = sess.call("query", ledger.query)
        leaver = ids[inst.leaver]
        txns = sess.call("remove_node", ledger.remove_node, leaver)
        self.records.append((inst, ids, plan, before, query, leaver, txns, ledger.debts))

    def covered(self) -> bool:
        return bool(self.records)

    def outputs(self) -> list[str]:
        return [repr((list(r[2]), list(r[4]), r[6])) for r in self.records]

    def check(self):
        """Problems per checked operation, one list each."""
        dc = self.dc
        for inst, ids, plan, before, query, leaver, txns, after in self.records:
            yield gate.check_plan(dc, dict(enumerate(inst.balances)), plan, "solve_static")
            want = {ids[u]: b for u, b in enumerate(inst.balances)}
            drift = [] if gate.nonzero(before) == want else [f"ledger holds {before}, not {want}"]
            yield (
                drift
                + gate.check_plan(dc, before, query, "query")
                + gate.check_sizes(dc, before, len(plan), len(query))
            )
            yield gate.check_departure(dc, before, after, leaver, txns)


class StreamReplay:
    """One 20-seat ``Ledger`` brought to its starting state by the warm-up
    arcs, then driven by the stream.  Each query is paired with a
    ``solve_static`` of the same balances.  A shadow of the balances, kept
    here from each update's documented effect, is compared with
    ``Ledger.debts`` at every query and departure."""

    def __init__(self, dc, stream):
        self.dc = dc
        self.stream = stream
        self.ledger = dc.Ledger()
        self.seats = [self.ledger.insert_node() for _ in range(wl.SEATS)]
        self.shadow: dict[int, int] = {}
        for step in stream.warmup:
            self._update(_direct, step)
        self.records = []
        self.leaving: int | None = None

    def step(self, sess: Session, i: int) -> None:
        step = self.stream.steps[i % len(self.stream.steps)]
        if step.op == "query":
            self._query(sess)
        elif step.op == "depart":
            self.leaving = step.a
        else:
            self._update(sess.call, step)
        if self.leaving is not None and len(gate.nonzero(self.shadow)) == wl.DEPART_K:
            self._depart(sess, self.leaving)
            self.leaving = None

    def _update(self, call, step) -> None:
        u, v = self.seats[step.a], self.seats[step.b]
        sh = self.shadow
        if step.op == "insert_arc":
            call("update", self.ledger.insert_arc, u, v, step.x)
            x = step.x
        else:
            call("update", self.ledger.remove_arc, u, v)
            du, dv = sh.get(u, 0), sh.get(v, 0)
            if du < 0 < dv:
                x = min(-du, dv)
            elif dv < 0 < du:
                u, v, x = v, u, min(du, -dv)
            else:
                return
        sh[u] = sh.get(u, 0) + x
        sh[v] = sh.get(v, 0) - x

    def _query(self, sess: Session) -> None:
        debts = self.ledger.debts
        shadow = gate.nonzero(self.shadow)
        plan = sess.call("query", self.ledger.query)
        nodes = sorted(gate.nonzero(debts))
        arcs = wl.settling_arcs(self.dc, [debts[u] for u in nodes])
        static = sess.call("solve", self.dc.solve_static, arcs, len(nodes))
        self.records.append(("query", shadow, debts, plan, nodes, static))

    def _depart(self, sess: Session, first: int) -> None:
        ring = [(first + j) % wl.SEATS for j in range(wl.SEATS)]
        seat = next((s for s in ring if self.shadow.get(self.seats[s], 0)), first)
        u = self.seats[seat]
        before = self.ledger.debts
        shadow = gate.nonzero(self.shadow)
        txns = sess.call("remove_node", self.ledger.remove_node, u)
        after = self.ledger.debts
        self.records.append(("depart", shadow, before, after, u, txns))
        self.shadow = gate.nonzero(after)
        self.seats[seat] = sess.call("insert_node", self.ledger.insert_node)

    def covered(self) -> bool:
        """True once every operation kind has run (after a departure)."""
        return any(r[0] == "depart" for r in self.records)

    def outputs(self) -> list[str]:
        return [repr((list(r[3]), list(r[5])) if r[0] == "query" else r[5]) for r in self.records]

    def check(self):
        """Problems per checked operation, one list each."""
        dc = self.dc
        for rec in self.records:
            shadow, debts = rec[1], rec[2]
            drift = [] if gate.nonzero(debts) == shadow else [f"ledger holds {debts}, not {shadow}"]
            if rec[0] == "depart":
                yield drift + gate.check_departure(dc, debts, rec[3], rec[4], rec[5])
                continue
            _, _, _, plan, nodes, static = rec
            yield drift + gate.check_plan(dc, debts, plan, "query")
            remapped = {i: debts[u] for i, u in enumerate(nodes)}
            yield (
                gate.check_plan(dc, remapped, static, "solve_static")
                + gate.check_sizes(dc, remapped, len(static), len(plan))
            )


def set_up(workload: str, seed: int):
    """Import debtclear, generate the inputs and bring the workload to its
    starting state.  Returns the module, a factory for fresh replays of
    the same inputs, and the replay to measure."""
    dc = import_debtclear()
    if workload == "ledger-stream":
        stream = wl.ledger_stream(dc, seed)
        fresh = lambda: StreamReplay(dc, stream)  # noqa: E731
    else:
        pool = wl.static_pool(dc, seed, dense=workload == "static-dense")
        fresh = lambda: StaticReplay(dc, pool)  # noqa: E731
    return dc, fresh, fresh()


def run_steps(replay, sess: Session, steps: int | None = None, seconds: float = 0.0) -> None:
    """Run exactly ``steps`` steps, or else for ``seconds`` and on until
    every operation kind has run (for at most ``COVER_STEPS`` steps)."""
    deadline = perf_counter() + seconds
    i = 0
    while (
        i < steps
        if steps is not None
        else perf_counter() < deadline or (not replay.covered() and i < COVER_STEPS)
    ):
        try:
            replay.step(sess, i)
        except OpFailed:
            pass
        i += 1


def verify(runs) -> tuple[int, int, list[str]]:
    """Gate every (session, replay) pair of runs over the same steps, and
    require each to have produced the first one's plans byte for byte.
    Returns attempted and failed operations and the problems found."""
    attempted = failed = 0
    problems: list[str] = []
    reference = runs[0][1].outputs()
    for sess, replay in runs:
        attempted += len(sess.log)
        failed += len(sess.problems)
        problems += sess.problems
        for found in replay.check():
            if found:
                failed += 1
                problems += found
        if replay.outputs() != reference:
            failed += 1
            problems.append("plans differ between runs of the same steps")
    return attempted, min(failed, attempted), problems


def percentile(ns: list[int], p: int) -> float:
    ms = [x / 1e6 for x in ns]
    if p == 50 or len(ms) < 2:
        return statistics.median(ms)
    return statistics.quantiles(ms, n=100, method="inclusive")[p - 1]


def end_to_end(log, setup_times: list[float], attempted: int, failed: int) -> tuple[dict, dict]:
    by_kind: dict[str, list[int]] = defaultdict(list)
    for kind, ns in log:
        if ns is not None:
            by_kind[kind].append(ns)
    metrics = {"setup_s": statistics.median(setup_times)}
    samples = {}
    for name, (kind, pcts) in LATENCIES.items():
        ns = by_kind[kind]
        samples[kind] = len(ns)
        for p in pcts:
            if len(ns) * (100 - p) < 1000:
                print(f"warning: {kind}: {len(ns)} samples leave fewer than 10 beyond p{p}",
                      file=sys.stderr)
            metrics[f"{name}_p{p}"] = percentile(ns, p) if ns else 0.0
    # throughput over busy time: the closed loop has no think time
    solve_ns = by_kind["solve"]
    metrics["solves_per_s"] = len(solve_ns) / (sum(solve_ns) / 1e9) if solve_ns else 0.0
    busy = [x for ns in by_kind.values() for x in ns]
    metrics["ops_per_s"] = len(busy) / (sum(busy) / 1e9) if busy else 0.0
    metrics["ok_frac"] = (attempted - failed) / attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {n: metrics[n] for n in E2E_UNITS}, samples


def layer_unit(name: str) -> str:
    if name.endswith((".ms", "_ms")):
        return "ms"
    if name == "engine.table_bytes":
        return "bytes_computed"
    if name.endswith(("_ratio", "_frac")) or name.startswith("split."):
        return "frac"
    return "count"


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    """Set up ``SETUP_REPS`` times, then measure for ``seconds``."""
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        _, fresh, replay = set_up(workload, seed)
        setup_times.append(perf_counter() - t0)
    run_steps(fresh(), Session())  # fill caches before timing
    sess = Session()
    run_steps(replay, sess, seconds=seconds)
    attempted, failed, problems = verify([(sess, replay)])
    metrics, samples = end_to_end(sess.log, setup_times, attempted, failed)
    return {
        "result": _result(attempted, failed, metrics, E2E_UNITS.get),
        "samples": samples,
        "problems": problems,
    }


def traced_run(workload: str, seed: int, seconds: float, steps: int | None = None) -> dict:
    """Alternate plain and traced passes over the same fixed steps until
    ``seconds`` are spent.  Timings are medians over the traced passes,
    counts must repeat exactly, and the overhead is the median difference
    between a traced pass and the plain pass before it."""
    steps = steps or TRACE_STEPS[workload]
    dc, fresh, warm = set_up(workload, seed)
    run_steps(warm, Session())
    deadline = perf_counter() + seconds
    runs, recs = [], []
    while not recs or perf_counter() < deadline:
        runs.append((Session(), fresh()))
        run_steps(runs[-1][1], runs[-1][0], steps)
        recs.append(spans.Recorder())
        runs.append((Session(recs[-1]), fresh()))
        with spans.instrument(dc, recs[-1]):
            run_steps(runs[-1][1], runs[-1][0], steps)
    attempted, failed, problems = verify(runs)

    per_pass = []
    for rec in recs:
        layer, absent = spans.summarize(rec)
        per_pass.append(layer)
    metrics = {}
    for name, value in per_pass[0].items():
        values = [m[name] for m in per_pass if name in m]
        if isinstance(value, int):
            if len(values) != len(per_pass) or len(set(values)) != 1:
                failed = min(failed + 1, attempted)
                problems.append(f"count {name} differs between passes: {values}")
            metrics[name] = value
        else:
            metrics[name] = statistics.median(values)
    busy = [sum(ns for _, ns in sess.log if ns is not None) / 1e6 for sess, _ in runs]
    overhead = statistics.median(t - p for p, t in zip(busy[::2], busy[1::2]))
    metrics["trace.overhead_ms"] = overhead
    metrics["trace.overhead_frac"] = overhead / statistics.median(busy[::2])
    return {
        "result": _result(attempted, failed, metrics, layer_unit),
        "passes": len(recs),
        "steps_per_pass": steps,
        "absent": absent,
        "problems": problems,
        "spans": [rec.spans for rec in recs],
    }


def _result(attempted: int, failed: int, metrics: dict, unit) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit(n)} for n, v in metrics.items()},
    }


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.trace:
            report = traced_run(args.workload, args.seed, args.seconds)
        else:
            report = timed_run(args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    report["env"] = environment(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(
            json.dumps({"env": report["env"], "passes": report.pop("spans")})
        )
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    for p in report["problems"][:20]:
        print(f"problem: {p}", file=sys.stderr)
    print("env " + json.dumps(report["env"]))
    for key in ("samples", "passes", "absent"):
        if key in report:
            print(f"{key} " + json.dumps(report[key]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

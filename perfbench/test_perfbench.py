"""Tests of the benchmark itself (run with ``python -m pytest perfbench``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
import spans
import workloads as wl

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
LAYERS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
# small traced passes that still reach every wrapped function
TINY_STEPS = {"static-dense": 2, "static-sparse": 2, "ledger-stream": 120}


@pytest.fixture(scope="module")
def dc():
    return run.import_debtclear()


def test_workloads_declared():
    assert run.WORKLOADS == tuple(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("dense", [True, False])
def test_static_pool_deterministic(dc, dense):
    a = wl.static_pool(dc, 5, dense)
    assert a == wl.static_pool(dc, 5, dense)
    assert a != wl.static_pool(dc, 6, dense)
    for inst in a[:20]:
        assert dc.balances_of(inst.arcs) == gate.nonzero(dict(enumerate(inst.balances)))
        assert len(gate.nonzero(dict(enumerate(inst.balances)))) == (
            wl.DENSE_K if dense else wl.SPARSE_K
        )


def test_dense_profiles_have_no_zero_sum_pair(dc):
    for inst in wl.static_pool(dc, 5, dense=True)[:50]:
        b = inst.balances
        assert all(x + y for i, x in enumerate(b) for y in b[i + 1:])


def test_stream_deterministic(dc):
    a = wl.ledger_stream(dc, 5, updates=500)
    assert a == wl.ledger_stream(dc, 5, updates=500)
    assert a != wl.ledger_stream(dc, 6, updates=500)
    ops = [s.op for s in a.steps]
    assert ops.count("query") == 500 // wl.QUERY_EVERY
    assert ops.count("depart") == 500 // wl.DEPART_EVERY


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_passes_gate(workload):
    report = run.timed_run(workload, seed=3, seconds=0.2)
    result = report["result"]
    assert result["correct"], report["problems"][:5]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == E2E
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = run.traced_run(workload, seed=3, seconds=0, steps=TINY_STEPS[workload])
    second = run.traced_run(workload, seed=3, seconds=0, steps=TINY_STEPS[workload])
    for report in (first, second):
        assert report["result"]["correct"], report["problems"][:5]
        assert report["absent"] == []
        assert {n: m["unit"] for n, m in report["result"]["metrics"].items()} == LAYERS
    counts = lambda r: {
        n: m["value"] for n, m in r["result"]["metrics"].items() if isinstance(m["value"], int)
    }
    assert counts(first) == counts(second)
    assert {"engine.touched_sums", "heuristics.zero_sets", "heuristics.atoms",
            "partition.parts", "engine.k"} <= set(counts(first))


def test_self_time_and_absent_functions():
    rec = spans.Recorder()
    root = rec.begin("op.query")
    outer = rec.begin("ledger.query")
    inner = rec.begin("engine.zero_sets")
    rec.end(inner)
    rec.end(outer)
    rec.end(root)
    metrics, absent = spans.summarize(rec)
    name, start, end, parent, _ = rec.spans[outer]
    child = rec.spans[inner][2] - rec.spans[inner][1]
    assert metrics["ledger.query.self_ms"] == (end - start - child) / 1e6
    assert rec.spans[inner][3] == outer and rec.spans[inner][4] == root
    assert "heuristics.clear_non_atomic" in absent
    assert not any(n.startswith("heuristics.") for n in metrics)


def test_instrument_restores_and_skips_missing_names(dc):
    original = dc.ledger.clear_non_atomic
    del dc.ledger.clear_non_atomic
    try:
        rec = spans.Recorder()
        with spans.instrument(dc, rec):
            assert not hasattr(dc.ledger, "clear_non_atomic")
            assert dc.ledger.clear_pairs.__wrapped__ is not None
        assert not hasattr(dc.ledger.clear_pairs, "__wrapped__")
    finally:
        dc.ledger.clear_non_atomic = original


def test_gate_flags_bad_outputs(dc):
    debts = {0: 3, 1: -3, 2: 2, 3: -2}
    good = dc.TransactionPlan([dc.Transaction(0, 1, 3), dc.Transaction(2, 3, 2)])
    bad = dc.TransactionPlan([dc.Transaction(0, 1, 3), dc.Transaction(2, 3, 1)])
    assert gate.check_plan(dc, debts, good, "x") == []
    assert gate.check_plan(dc, debts, bad, "x")
    assert gate.check_sizes(dc, debts, 2, 2) == []
    assert gate.check_sizes(dc, debts, 2, 3)
    assert gate.check_sizes(dc, debts, 3, 3)  # the oracle knows 2 is optimal
    before = dict(debts)
    after = {1: 0, 2: 2, 3: -2}
    assert gate.check_departure(dc, before, after, 0, [dc.Transaction(0, 1, 3)]) == []
    assert gate.check_departure(dc, before, after, 0, [dc.Transaction(0, 1, 2)])
    assert gate.check_departure(dc, before, {1: 0, 2: 0, 3: 0}, 0, [dc.Transaction(0, 1, 3)])


def test_exits_nonzero_without_source(tmp_path: Path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "static-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

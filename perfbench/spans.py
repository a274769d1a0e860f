"""In-memory spans around debtclear's layer boundaries, for the traced run.

The wrappers live here, in the benchmark, and are installed only for a
traced pass: the public functions at the names ``debtclear.ledger``
calls, the ``SubsetSumEngine`` methods and the ``Ledger`` facade.  The
benchmark's own root span around each operation it issues ("op.<kind>")
is the parent of everything the operation calls, so spans of one
operation share its root index.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# (layer, owner, attribute): owner "ledger" is the debtclear.ledger module,
# anything else a class that module refers to.
TARGETS = (
    ("engine", "SubsetSumEngine", "rebuild_from_debts"),
    ("engine", "SubsetSumEngine", "zero_sets"),
    ("engine", "SubsetSumEngine", "apply_arc_delta"),
    ("heuristics", "ledger", "clear_pairs"),
    ("heuristics", "ledger", "clear_non_atomic"),
    ("partition", "ledger", "max_partition"),
    ("partition", "ledger", "min_removal_set"),
    ("partition", "ledger", "settle_part"),
    ("model", "ledger", "balances_of"),
    ("ledger", "Ledger", "query"),
    ("ledger", "Ledger", "insert_arc"),
    ("ledger", "Ledger", "remove_node"),
)
SPAN_NAMES = tuple(f"{layer}.{attr}" for layer, _, attr in TARGETS)
# facade spans are reported by self time: their span minus their children
FACADE = frozenset(n for n in SPAN_NAMES if n.startswith("ledger."))

# counters and the wrapped function whose calls produce them
COUNTER_SOURCE = {
    "engine.touched_sums": "engine.apply_arc_delta",
    "heuristics.zero_sets": "heuristics.clear_non_atomic",
    "heuristics.atoms": "heuristics.clear_non_atomic",
    "partition.parts": "partition.max_partition",
}

# the acceptance splits: share of the root kind's time spent in these spans
SPLITS = {
    "split.solve.table": ("solve", ("engine.rebuild_from_debts", "engine.zero_sets")),
    "split.solve.reduce_dp": (
        "solve",
        ("heuristics.clear_non_atomic", "partition.max_partition"),
    ),
    "split.update.patch": ("update", ("engine.apply_arc_delta",)),
}
ROOT_KINDS = ("solve", "update", "query", "remove_node")


class Recorder:
    """Spans as ``[name, start_ns, end_ns, parent, root]`` plus exact counts.

    ``parent`` and ``root`` index into ``spans``; a root span has parent
    -1 and is its own root.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.k_max = 0
        self.table_max = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else i
        self.spans.append([name, perf_counter_ns(), 0, parent, root])
        self._stack.append(i)
        return i

    def end(self, i: int) -> None:
        self.spans[i][2] = perf_counter_ns()
        self._stack.pop()

    def note_engine(self, engine) -> None:
        self.k_max = max(self.k_max, engine.vstar_size)
        # computed, not measured: 8 bytes per entry of the 2^width table
        self.table_max = max(self.table_max, 8 << len(engine.node_slots()))


def _after_engine(rec: Recorder, args, out) -> None:
    rec.note_engine(args[0])


def _after_arc(rec: Recorder, args, out) -> None:
    rec.counts["engine.touched_sums"] += args[0].last_touched_sums
    rec.note_engine(args[0])


def _after_atoms(rec: Recorder, args, out) -> None:
    rec.counts["heuristics.zero_sets"] += len(args[0])
    rec.counts["heuristics.atoms"] += len(out)


def _after_partition(rec: Recorder, args, out) -> None:
    rec.counts["partition.parts"] += out.part_count


AFTER = {
    "engine.rebuild_from_debts": _after_engine,
    "engine.zero_sets": _after_engine,
    "engine.apply_arc_delta": _after_arc,
    "heuristics.clear_non_atomic": _after_atoms,
    "partition.max_partition": _after_partition,
}


def _wrap(rec: Recorder, name: str, fn):
    after = AFTER.get(name)

    def traced(*args, **kwargs):
        i = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(i)
        if after is not None:
            after(rec, args, out)
        return out

    traced.__wrapped__ = fn
    return traced


@contextmanager
def instrument(dc, rec: Recorder):
    """Install the wrappers on ``dc`` (an imported debtclear) for the
    duration of the block; a name the code no longer has is skipped and
    later reported absent."""
    installed = []
    try:
        for (_, owner_name, attr), name in zip(TARGETS, SPAN_NAMES):
            owner = dc.ledger if owner_name == "ledger" else getattr(dc.ledger, owner_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            setattr(owner, attr, _wrap(rec, name, original))
            installed.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def summarize(rec: Recorder) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pass, and the wrapped names that
    were never called (absent, so reported as missing rather than 0)."""
    child_ns = [0] * len(rec.spans)
    for name, start, end, parent, _ in rec.spans:
        if parent >= 0:
            child_ns[parent] += end - start
    busy: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    under: dict[str, Counter] = defaultdict(Counter)
    for i, (name, start, end, _, root) in enumerate(rec.spans):
        busy[name] += end - start
        own[name] += end - start - child_ns[i]
        calls[name] += 1
        under[rec.spans[root][0]][name] += end - start

    out: dict[str, float] = {}
    absent = [n for n in SPAN_NAMES if not calls[n]]
    for n in SPAN_NAMES:
        if n in absent:
            continue
        if n in FACADE:
            out[f"{n}.self_ms"] = own[n] / 1e6
        else:
            out[f"{n}.ms"] = busy[n] / 1e6
        out[f"{n}.calls"] = calls[n]
    for counter, source in COUNTER_SOURCE.items():
        if source not in absent:
            out[counter] = rec.counts[counter]
    if "heuristics.clear_non_atomic" not in absent and rec.counts["heuristics.zero_sets"]:
        out["heuristics.atom_ratio"] = (
            rec.counts["heuristics.atoms"] / rec.counts["heuristics.zero_sets"]
        )
    if rec.k_max:
        out["engine.k"] = rec.k_max
        out["engine.table_bytes"] = rec.table_max
    for kind in ROOT_KINDS:
        root_ns = busy[f"op.{kind}"]
        if root_ns:
            out[f"op.{kind}.ms"] = root_ns / 1e6
    for split, (kind, parts) in SPLITS.items():
        root_ns = busy[f"op.{kind}"]
        if root_ns:
            out[split] = sum(under[f"op.{kind}"][p] for p in parts) / root_ns
    return out, absent

"""Departure groups pinned by a recorded golden file.

``golden/departures.txt`` holds seeded ``Ledger`` histories of node
insertions, arcs, cancellations and departures, with at most 16 nonzero
balances at any time, and the transactions each departure settled when
the file was recorded (by the zero-set-list DP that ``remove_node`` used
before the level DP).  Replaying them pins the departure groups, their
tie-breaks included.

Regenerate with ``PYTHONPATH=src python tests/test_departures.py``, but
only from code whose departures are known to be right: the file is the
reference, not a snapshot of whatever the code does today.

Line format, one operation per line:

* ``h <seed>`` starts a history on a fresh ``Ledger``;
* ``n`` inserts a node (ids are handed out 0, 1, 2, ...);
* ``a <u> <v> <x>`` is ``insert_arc(u, v, x)``;
* ``c <u> <v>`` is ``remove_arc(u, v)``;
* ``d <u>`` is ``remove_node(u)``, followed by ``| <sender> <receiver>
  <amount>`` for each settled transaction, in order.
"""

from __future__ import annotations

import random
from pathlib import Path

from debtclear import Ledger

GOLDEN = Path(__file__).parent / "golden" / "departures.txt"
HISTORIES = 300
MAX_NONZERO = 16


def _departure_line(u, txns) -> str:
    return " | ".join([f"d {u}"] + [f"{t.sender} {t.receiver} {t.amount}" for t in txns])


def _history(seed: int) -> list[str]:
    rng = random.Random(seed)
    led = Ledger()
    lines = [f"h {seed}"]
    live: list[int] = []

    def add_node():
        live.append(led.insert_node())
        lines.append("n")

    for _ in range(rng.randint(4, 18)):
        add_node()
    wmax = rng.choice([3, 6, 12, 40])

    def add_arc():
        u, v = rng.sample(live, 2)
        x = rng.randint(1, wmax)
        after = led.debts
        after[u] += x
        after[v] -= x
        if sum(d != 0 for d in after.values()) <= MAX_NONZERO:
            led.insert_arc(u, v, x)
            lines.append(f"a {u} {v} {x}")

    for _ in range(rng.randint(len(live), 3 * len(live))):
        add_arc()
    for _ in range(rng.randint(20, 50)):
        r = rng.random()
        if r < 0.6:
            add_arc()
        elif r < 0.7:
            u, v = rng.sample(live, 2)
            led.remove_arc(u, v)
            lines.append(f"c {u} {v}")
        elif r < 0.95:
            owing = [w for w in live if led.debts[w]]
            u = rng.choice(owing if owing and rng.random() < 0.9 else live)
            live.remove(u)
            lines.append(_departure_line(u, led.remove_node(u)))
            if len(live) < 4 or rng.random() < 0.8:
                add_node()
        elif len(live) < 20:
            add_node()
    return lines


def test_departures_replay_golden():
    led = None
    departures = 0
    for line in GOLDEN.read_text().splitlines():
        op, *args = line.split(" | ")[0].split()
        if op == "h":
            led = Ledger()
        elif op == "n":
            led.insert_node()
        elif op == "a":
            led.insert_arc(*map(int, args))
        elif op == "c":
            led.remove_arc(*map(int, args))
        else:
            assert op == "d", line
            assert _departure_line(args[0], led.remove_node(int(args[0]))) == line
            departures += 1
    assert departures > 2000


if __name__ == "__main__":
    GOLDEN.write_text("".join(line + "\n" for s in range(HISTORIES) for line in _history(s)))

"""The text the CLI reads and writes: instance files, plans, operation scripts.

Every number in an instance file or a script is ASCII decimal,
``-?[0-9]+``, of at most 640 digits.  ``int()`` alone would also take a
leading ``+``, underscores between digits and non-ASCII digits such as
``٥``.
"""

from __future__ import annotations

import io
import re
from typing import Iterable, Sequence

from .errors import ParseError, ScriptError
from .ledger import Ledger
from .model import MONEY_MAX, Borrowing, NodeId, Transaction, TransactionPlan

# at most 640 digits, the lowest limit sys.set_int_max_str_digits accepts
# for int() of a str, so int() never raises on a match; a longer number is
# far outside the int64 range
_DECIMAL = re.compile(r"-?[0-9]{1,640}")


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
    if not all(map(_DECIMAL.fullmatch, fields)):
        raise ParseError(line_no, f"expected integers 'n m', got {header!r}")
    n, m = map(int, fields)
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
        if not all(map(_DECIMAL.fullmatch, fields)):
            raise ParseError(line_no, f"expected three integers, got {ln!r}")
        b, l, w = map(int, fields)
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
    if not _DECIMAL.fullmatch(text):
        raise ScriptError(idx, f"invalid amount {text!r}")
    return int(text)

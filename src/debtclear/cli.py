"""Command-line interface: solve, run, gen, bench, oracle."""

from __future__ import annotations

import argparse
import sys

from .bench import CASE_TABLE, DEFAULT_SEED, CaseSpec, generate_case, run_benchmark
from .errors import DebtClearError
from .formats import _DECIMAL, format_plan, format_static, parse_static, run_script
from .ledger import solve_static
from .model import balances_of
from .oracle import oracle_max_zero_partition


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _decimal(text: str) -> int:
    """``int`` for a command-line number: ASCII decimal only, as in the files."""
    if not _DECIMAL.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(f"expected an ASCII decimal integer, got {text!r}")
    return int(text)


def _parse_test_list(text: str) -> list[int]:
    ids: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        lo, sep, hi = chunk.partition("-")
        try:
            first, last = _decimal(lo), _decimal(hi if sep else lo)
        except argparse.ArgumentTypeError:
            raise DebtClearError(f"malformed test list entry {chunk!r}") from None
        # the table's ids are contiguous, so checking the ends bounds the range
        for t in (first, last):
            if t not in CASE_TABLE:
                raise DebtClearError(f"unknown test id {t}")
        if first > last:
            raise DebtClearError(f"empty test range {chunk!r}")
        ids.extend(range(first, last + 1))
    if not ids:
        raise DebtClearError("no test ids given")
    return ids


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="debtclear",
        description="Settle group debts with a minimal number of payments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a static instance file")
    p.add_argument("file", help="instance file ('-' for stdin)")
    p.add_argument("--out", help="write the plan here instead of stdout")

    p = sub.add_parser("run", help="execute an operation script")
    p.add_argument("script", help="script file ('-' for stdin)")
    p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("gen", help="generate one of the 15 benchmark cases")
    p.add_argument("test_id", type=_decimal, choices=sorted(CASE_TABLE), metavar="ID")
    p.add_argument("--seed", type=_decimal, default=DEFAULT_SEED)
    p.add_argument("--out", help="write the instance here instead of stdout")

    p = sub.add_parser("bench", help="time the algorithms over generated cases")
    p.add_argument("--tests", default="1-15", help="comma list with ranges, e.g. 1,2,5-8")
    p.add_argument("--mode", choices=("once", "per-arc"), default="once")
    p.add_argument("--reps", type=_decimal, default=3)
    p.add_argument("--seed", type=_decimal, default=DEFAULT_SEED)
    p.add_argument("--csv", help="write the CSV here instead of stdout")

    p = sub.add_parser("oracle", help="exact brute-force optimum of an instance file")
    p.add_argument("file", help="instance file ('-' for stdin)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            n, arcs = parse_static(_read(args.file))
            _write(args.out, format_plan(solve_static(arcs, n)))
        elif args.command == "run":
            _write(args.out, run_script(_read(args.script)))
        elif args.command == "gen":
            n, arcs = generate_case(CaseSpec(args.test_id, args.seed))
            _write(args.out, format_static(n, arcs))
        elif args.command == "bench":
            cases = [CaseSpec(t, args.seed) for t in _parse_test_list(args.tests)]
            report = run_benchmark(cases, repetitions=args.reps, mode=args.mode)
            for w in report.warnings:
                print(f"warning: {w}", file=sys.stderr)
            _write(args.csv, report.to_csv())
        elif args.command == "oracle":
            n, arcs = parse_static(_read(args.file))
            res = oracle_max_zero_partition(balances_of(arcs))
            _write(None, f"max_parts {res.max_parts}\nmin_transactions {res.min_transactions}\n")
    except (DebtClearError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

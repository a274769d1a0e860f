from pathlib import Path

import pytest

from debtclear import parse_static
from debtclear.cli import main

EXAMPLE1_TEXT = "5 5\n1 2 10\n2 3 5\n3 1 5\n1 4 5\n4 5 10\n"
SOLVE_GEN_GOLDEN = Path(__file__).parent / "golden" / "solve_gen.txt"


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.txt"
    path.write_text(EXAMPLE1_TEXT)
    return str(path)


def test_solve_prints_plan(example_file, capsys):
    assert main(["solve", example_file]) == 0
    assert capsys.readouterr().out == "2\n1 5 10\n4 2 5\n"


def test_solve_out_file(example_file, tmp_path):
    out = tmp_path / "plan.txt"
    assert main(["solve", example_file, "--out", str(out)]) == 0
    assert out.read_text() == "2\n1 5 10\n4 2 5\n"


def test_solve_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n1 1 5\n")
    assert main(["solve", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_solve_missing_file_exit_code(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.txt" in err


def test_solve_non_utf8_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe2 1\n")
    assert main(["solve", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "utf-8" in err


def test_gen_unwritable_out_exit_code(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "case3.txt"
    assert main(["gen", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no_such_dir" in err


def test_gen_writes_parseable_instance(tmp_path, capsys):
    out = tmp_path / "case1.txt"
    assert main(["gen", "1", "--out", str(out)]) == 0
    n, arcs = parse_static(out.read_text())
    assert n == 20 and len(arcs) == 19


def test_gen_seed_changes_random_case(capsys):
    assert main(["gen", "9", "--seed", "5"]) == 0
    a = capsys.readouterr().out
    assert main(["gen", "9", "--seed", "6"]) == 0
    b = capsys.readouterr().out
    assert a != b


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "٣"],  # an Arabic-Indic three, which int() takes
        ["gen", "3", "--seed", "٥"],
        ["gen", "+3"],
        ["bench", "--reps", "١"],
        ["gen", "16"],  # ASCII, but no such case
    ],
)
def test_numeric_arguments_are_ascii_decimal(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: argument" in err


def test_bench_test_list_is_ascii_decimal(capsys):
    assert main(["bench", "--tests", "1_0"]) == 2  # int() reads 10
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: malformed")


def test_gen_then_solve_pipeline(tmp_path, capsys):
    case = tmp_path / "case2.txt"
    assert main(["gen", "2", "--out", str(case)]) == 0
    assert main(["solve", str(case)]) == 0
    assert capsys.readouterr().out == "0\n"


def test_solve_generated_cases_golden(tmp_path, capsys):
    """``solve`` prints the recorded plan for each of the 15 generated cases."""
    got = []
    for t in range(1, 16):
        case = tmp_path / f"case{t}.txt"
        assert main(["gen", str(t), "--out", str(case)]) == 0
        assert main(["solve", str(case)]) == 0
        got.append(f"# case {t}\n" + capsys.readouterr().out)
    assert "".join(got) == SOLVE_GEN_GOLDEN.read_text()


def test_oracle_command(example_file, capsys):
    assert main(["oracle", example_file]) == 0
    assert capsys.readouterr().out == "max_parts 2\nmin_transactions 2\n"


def test_oracle_refuses_totals_outside_int64(tmp_path, capsys):
    big = 2**63 - 1
    path = tmp_path / "wrap.txt"
    path.write_text(f"5 4\n1 4 {big}\n2 5 {big}\n3 4 1\n3 5 1\n")
    assert main(["oracle", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_run_command(tmp_path, capsys):
    script = tmp_path / "ops.txt"
    script.write_text("NODE a\nNODE b\nARC a b 3\nQUERY\n")
    assert main(["run", str(script)]) == 0
    assert capsys.readouterr().out == "query 1\na b 3\n"


def test_run_command_script_error(tmp_path, capsys):
    script = tmp_path / "ops.txt"
    script.write_text("NODE a\nARC a zz 3\n")
    assert main(["run", str(script)]) == 2
    assert "command 2" in capsys.readouterr().err


def test_bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--tests", "1,2", "--reps", "1", "--csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("test,algorithm,mode,reps,")
    assert len(lines) == 5  # header + 2 cases x 2 algorithms


def test_bench_test_range_parsing(capsys):
    assert main(["bench", "--tests", "1-3", "--reps", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7


def test_bench_unknown_test(capsys):
    assert main(["bench", "--tests", "42"]) == 2
    assert "unknown test id" in capsys.readouterr().err


def test_bench_huge_range_refused_before_expansion(capsys):
    assert main(["bench", "--tests", "1-1000000000000"]) == 2
    assert "unknown test id" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tests, message",
    [
        ("3-", "malformed"),
        ("abc", "malformed"),
        ("-3", "malformed"),
        ("8-5", "empty test range"),
        (",", "no test ids"),
    ],
)
def test_bench_bad_test_list(capsys, tests, message):
    assert main(["bench", "--tests", tests]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err

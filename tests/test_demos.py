import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"


GOLDEN = ROOT / "tests" / "golden"
# the deterministic demos, whose stdout is recorded byte for byte
RECORDED = ("01_static_settlement", "02_dynamic_ledger", "03_engine_internals")


def run_demo(script):
    # run against this checkout's sources, installed or not
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("script", sorted(DEMO_DIR.glob("*.py")), ids=lambda p: p.name)
def test_demo_runs_clean(script):
    proc = run_demo(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("name", RECORDED)
def test_demo_stdout_golden(name):
    proc = run_demo(DEMO_DIR / f"{name}.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"demo_{name}.txt").read_text()

"""The narrative demos run against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "name,expect",
    [
        ("01_interpolants_from_refutations.py", "circuit store holds"),
        ("02_reconciliation_walkthrough.py", "verdict: UNSAT after"),
        ("03_pigeonhole_sweep.py", "For CSV output"),
    ],
)
def test_demo_runs(name, expect):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout

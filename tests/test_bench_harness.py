"""Smoke run of the benchmark harness, so that it cannot rot unnoticed.

Each workload runs once at its tiny sizes through bench/run.py and must
report correct outputs with no failed operation.  Timings are not checked.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["words", "deformed", "grids", "cli"])
def test_tiny_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1

"""Smoke run of the benchmark harness, so that it cannot rot unnoticed.

Each workload runs once at its tiny sizes through bench/run.py under the
tracer, which takes one child process, and must report correct outputs with
no failed operation; `words` also runs once untraced, through the set-up
children the end-to-end metrics use.  Timings are not checked.  The traced
call counts of the layers each workload exercises must be above zero, so a
refactor that hides the shared arithmetic from the tracer fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACED_LAYERS = {
    "words": ("laurent.calls", "opalgebra.calls"),
    "deformed": ("gridfn.calls",),
    "grids": ("gridfn.calls",),
    "cli": (),
}


def tiny_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--tiny", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("workload", sorted(TRACED_LAYERS))
def test_tiny_benchmark_run_is_correct(workload):
    metrics = tiny_run(workload, trace=1)
    for name in TRACED_LAYERS[workload]:
        assert metrics[name]["value"] > 0, name


def test_tiny_untraced_run_is_correct():
    assert tiny_run("words", trace=0)["throughput_ops_s"]["value"] > 0

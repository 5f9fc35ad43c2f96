"""Tiny-size self-test of the benchmark harness.

    python3 -m pytest -q bench

Runs every workload untraced and traced at minimal sizes (one round over
the input pool), exercises each oracle against the library and against a
deliberately wrong answer, and checks that the command refuses to run
without the library's sources.  Takes seconds; it measures nothing.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_and_checks(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = run.LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_layers_follow_the_workload_design():
    layers = {}
    for workload in run.WORKLOADS:
        proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0.1",
                      "--trace", "1", "--tiny")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        layers[workload] = {k: v["value"] for k, v in metrics.items()}
    assert layers["words"]["opalgebra.term_pairs"] > 0
    assert layers["words"]["laurent.term_pairs"] > 0
    assert layers["words"]["gridfn.calls"] == 0
    assert layers["deformed"]["gridfn.point_evals"] > 0
    assert layers["deformed"]["opalgebra.peak_terms"] >= 32
    assert layers["grids"]["gridfn.ns_per_point_eval"] > 0
    assert layers["grids"]["opalgebra.peak_terms"] <= 4
    assert layers["cli"]["funceq.linalg_ms"] > 0
    assert layers["cli"]["cli.bytes_written"] > 0
    for workload in ("words", "deformed", "grids"):
        assert layers[workload]["cli.calls"] == 0
        assert layers[workload]["funceq.calls"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "words", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_word_closed_form_agrees_with_the_expansion():
    from waveq.qdeform import w_minus

    for n in (8, 10):
        for s in (1.0, 0.75, 0.5, 0.3):
            lam = 0.9j
            terms = ((2.0 * w_minus(s)) ** n).terms()
            total, rates, _ = oracles.normal_form_on_exponential(terms, lam)
            coeff, rate = oracles.word_on_exponential(s, n, lam)
            assert abs(complex(total - coeff)) <= 1e-15 * 2**n
            assert max(abs(complex(r - rate)) for r in rates) <= 1e-12


def test_laurent_power_oracle_by_hand():
    p = {Fraction(0): Fraction(1), Fraction(-1, 2): Fraction(1)}
    assert oracles.laurent_power(p, 2) == {Fraction(0): 1, Fraction(-1, 2): 2, Fraction(-1): 1}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_catch_a_corrupted_output(name):
    wl = workloads.WORKLOADS[name](random.Random(f"{name}:7"), True)
    try:
        x = wl.inputs[0]
        out = wl.after_run(x, wl.run(x))
        assert wl.check(x, out) == []
        _corrupt(name, out)
        assert wl.check(x, out) != []
    finally:
        wl.cleanup()


def _corrupt(name, out):
    if name == "words":
        out["word_one"] = out["word_one"][1:]
    elif name == "deformed":
        out.values[len(out.values) // 4] *= 1.0 + 1e-9
    elif name == "grids":
        out["applied"].values[5] += 2.0**-20
    else:
        lines = out["files"]["spectrum.csv"].decode().splitlines()
        lines[2] = "1,0.5"  # the row n = 1, a_1 = 2 a0^2 - 1
        out["files"]["spectrum.csv"] = ("\n".join(lines) + "\n").encode()


def test_bspline_pair_and_curves_match_the_library():
    from waveq import LaurentPoly, iterate_spectrum, solve_refinement

    h, m = Fraction(1, 2), 3
    mask = LaurentPoly.from_dict({float(e): float(c) for e, c in oracles.bspline_mask(h, m).items()})
    sol = solve_refinement(mask, 4)
    b, rho = oracles.bspline_detail(h, m)
    tol = oracles.refinement_tolerance(h, m, 4)
    got = {Fraction(e.value): complex(c) for e, c in sol.b.terms()}
    assert set(got) == set(b) and sol.rho == float(rho)
    assert max(abs(got[e] - float(c)) for e, c in b.items()) <= tol
    a0 = 0.3
    for n, a in iterate_spectrum(a0, n=10).values:
        assert abs(a - float(oracles.doubling_closed_form(a0, n))) <= oracles.iteration_tolerance(a0, n)


def test_lattice_application_by_hand():
    from waveq import GridFunction, OpExpr, apply_op_grid

    values = [float(k % 5) for k in range(3 * 4)]
    op = OpExpr.term(0.5, beta=1, alpha=0.25) + OpExpr.term(-2.0, alpha=-0.5)
    got = apply_op_grid(op, GridFunction(2, (-1, 2), values))
    want = oracles.apply_on_lattice([(0.5, 1, Fraction(1, 4)), (-2.0, 0, Fraction(-1, 2))],
                                    values, 2, -1)
    assert list(got.values) == want

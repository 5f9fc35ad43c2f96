import math
import random

import pytest

from waveq.laurent import EvaluationOverflowError
from waveq.spectra import (
    SpectrumTrace,
    a2half_step,
    doubling_step,
    fig1_csv,
    fig1_data,
    fig1_report,
    haar_closed_form,
    iterate_spectrum,
    ladder_check,
    zero_crossing_count,
)


def rel_err(got, want):
    return abs(got - want) / max(1.0, abs(want))


def test_trace_recursion_invariant():
    trace = iterate_spectrum(0.3, n=12)
    pairs = trace.values
    assert pairs[0] == (0, 0.3)
    for (n, a), (m, b) in zip(pairs, pairs[1:]):
        assert m == n + 1
        assert rel_err(b, 2.0 * a * a - 1.0) <= 1e-12


def test_iterate_matches_closed_form_both_branches():
    for a0 in (0.3, 0.9, 1.2, math.cosh(1.0)):
        trace = iterate_spectrum(a0, n=6)
        for n, a_n in trace.values:
            assert rel_err(a_n, haar_closed_form(a0, n)) <= 1e-12


def test_closed_form_tags():
    assert iterate_spectrum(0.5, n=2).closed_form_tag == "cos-branch"
    assert iterate_spectrum(-1.0, n=2).closed_form_tag == "cos-branch"
    assert iterate_spectrum(1.5, n=2).closed_form_tag == "cosh-branch"
    assert iterate_spectrum(2.0, lambda a: a + 1.0, 2).closed_form_tag == "none"
    with pytest.raises(ValueError):
        SpectrumTrace(0.0, ((0, 0.0),), "sin-branch")


def test_closed_form_below_minus_one_steps_once():
    a0 = -1.5
    a1 = 2.0 * a0 * a0 - 1.0
    assert a1 > 1.0
    for n in range(1, 6):
        want = math.cosh(2.0 ** (n - 1) * math.acosh(a1))
        assert rel_err(haar_closed_form(a0, n), want) <= 1e-12
    trace = iterate_spectrum(a0, n=5)
    for n, a_n in trace.values:
        assert rel_err(a_n, haar_closed_form(a0, n)) <= 1e-12


def test_fixed_points_of_the_recursion():
    assert haar_closed_form(1.0, 7) == 1.0
    # -1 maps to +1 in one step and stays there
    assert haar_closed_form(-1.0, 0) == -1.0
    for n in range(1, 5):
        assert abs(haar_closed_form(-1.0, n) - 1.0) <= 1e-12


def test_overflow_truncates_trace():
    trace = iterate_spectrum(10.0, n=60)
    assert trace.overflow_at is not None
    assert len(trace.values) == trace.overflow_at
    assert all(math.isfinite(a) for _, a in trace.values)
    # the recorded prefix still satisfies the recursion
    for (n, a), (m, b) in zip(trace.values, trace.values[1:]):
        assert rel_err(b, 2.0 * a * a - 1.0) <= 1e-12


def test_closed_form_overflow_raises():
    with pytest.raises(EvaluationOverflowError):
        haar_closed_form(10.0, 60)


def test_half_step_exact_rational_point():
    assert a2half_step(0.75) == 1.875


def test_half_step_doubles_sinh_argument():
    assert abs(a2half_step(math.sinh(1.0)) - math.sinh(2.0)) <= 1e-13
    for i in range(51):
        t = 5.0 * i / 50.0
        got = a2half_step(math.sinh(t))
        want = math.sinh(2.0 * t)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_half_step_alternative_form():
    rng = random.Random(20260822)
    for _ in range(200):
        a = rng.uniform(-20.0, 20.0)
        want = 2.0 * a * math.sqrt(1.0 + a * a)
        assert abs(a2half_step(a) - want) <= 1e-13 * max(1.0, abs(want))


def test_ladder_exact_dyadic_coefficients():
    report = ladder_check(math.log(2.0), range(0, 5))
    row0 = report["ladder_rows"][0]
    # e^(-log 2) = 1/2 exactly, so the lowering coefficient is exactly 3/4
    assert row0["minus_coeff"] == 0.75
    assert row0["a_n"] == 1.25
    assert row0["minus_target_a"] == 2.125
    row1 = report["ladder_rows"][1]
    assert row1["a_n"] == 2.125
    assert report["max_ladder_error"] <= 1e-12


def test_ladder_transitions_generic_rate():
    report = ladder_check(0.37, range(0, 4))
    for row in report["ladder_rows"]:
        lam = row["rate"]
        assert rel_err(row["a_n"], math.cosh(lam)) <= 1e-12
        assert rel_err(row["minus_target_a"], math.cosh(2.0 * lam)) <= 1e-12
        assert rel_err(row["plus_target_a"], math.cosh(0.5 * lam)) <= 1e-12
    assert report["max_ladder_error"] <= 1e-12


def test_oscillating_modes():
    report = ladder_check(math.log(2.0), (0,), mode_orders=(2, 3, 4, 8))
    for row in report["mode_rows"]:
        assert row["eigenvalue_error"] <= 1e-12
        assert row["minus_coeff_error"] <= 1e-12
        assert row["plus_coeff_error"] <= 1e-12
        assert row["stray_rate_error"] <= 1e-12
    assert report["max_mode_error"] <= 1e-12


def test_mode_order_one_annihilated():
    report = ladder_check(math.log(2.0), (0,), mode_orders=(1,))
    row = report["mode_rows"][0]
    assert abs(row["minus_coeff"]) < 1e-15
    assert abs(row["plus_coeff"]) < 1e-15


def test_constant_function_fixed_by_both_ladders():
    report = ladder_check(math.log(2.0), (0,))
    assert report["constant_fixed_minus"] == 1.0
    assert report["constant_fixed_plus"] == 1.0


def test_zero_a_tilde_rejected():
    with pytest.raises(ValueError):
        ladder_check(0.0, range(3))


def test_fig1_known_zero():
    a0 = math.cos(math.pi / 8.0)
    rows = fig1_data([2], [a0])
    assert len(rows) == 1
    assert abs(rows[0][2]) <= 1e-12


def test_fig1_grid_validated():
    with pytest.raises(ValueError):
        fig1_data([2], [0.5, 1.5])
    with pytest.raises(ValueError):
        fig1_data([2], [-0.1])


def test_fig1_zero_crossing_counts():
    report = fig1_report([2, 4, 6], grid_size=512)
    assert report["zero_crossings"][2] == 2
    assert report["zero_crossings"][4] == 8
    assert report["zero_crossings"][6] == 32
    assert report["zero_crossings"][6] == 2**4 * report["zero_crossings"][2]


def test_fig1_semiconjugacy_on_grid():
    grid = [i / 40.0 for i in range(41)]
    for a0 in grid:
        for n in (2, 4, 6):
            stepped = doubling_step(haar_closed_form(a0, n))
            assert rel_err(haar_closed_form(a0, n + 1), stepped) <= 1e-12


def test_fig1_self_similarity():
    # the n = 6 curve replays the n = 2 curve once the angle is compressed
    # sixteen-fold: cos(64 t/16) = cos(4 t)
    for i in range(1, 17):
        theta = math.pi / 2.0 * i / 17.0
        coarse = haar_closed_form(math.cos(theta), 2)
        fine = haar_closed_form(math.cos(theta / 16.0), 6)
        assert abs(fine - coarse) <= 1e-10


def test_zero_crossing_counter():
    assert zero_crossing_count([1.0, -1.0, 1.0]) == 2
    assert zero_crossing_count([1.0, 0.0, 1.0]) == 0
    assert zero_crossing_count([1.0, 2.0, 3.0]) == 0


def test_zero_crossing_counts_an_exact_zero_at_a_sign_change_once():
    assert zero_crossing_count([1.0, 0.0, -1.0]) == 1
    assert zero_crossing_count([-1.0, 0.0, 0.0, 1.0, 0.0, -2.0]) == 2
    assert zero_crossing_count([0.0, 0.0, 1.0]) == 0
    assert zero_crossing_count([0.0, 0.0]) == 0
    assert zero_crossing_count([]) == 0


def test_trace_csv_roundtrip():
    trace = iterate_spectrum(0.3, n=4)
    text = trace.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "n,a_n"
    assert len(lines) == 6
    for line, (n, a_n) in zip(lines[1:], trace.values):
        ns, vs = line.split(",")
        assert int(ns) == n
        assert float(vs) == a_n


def test_fig1_csv_header_and_digits():
    rows = fig1_data([2], [0.0, 0.5, 1.0])
    text = fig1_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "a0,n,a_n"
    a0, n, a_n = lines[2].split(",")
    assert float(a0) == 0.5
    assert int(n) == 2
    assert float(a_n) == haar_closed_form(0.5, 2)


def test_trace_value_at():
    trace = iterate_spectrum(0.3, n=3)
    assert trace.value_at(0) == 0.3
    with pytest.raises(KeyError):
        trace.value_at(9)

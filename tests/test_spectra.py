import math
import random

import mpmath
import pytest

from waveq.laurent import EvaluationOverflowError
from waveq.spectra import (
    COSH_ARG_LIMIT,
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


def test_a_rate_doubling_beyond_the_float_range_raises_naming_n():
    # 2^n itself overflows from n = 1024 on, on both branches and along the ladder
    for call in (lambda: haar_closed_form(0.5, 5000), lambda: haar_closed_form(1.5, 1024),
                 lambda: ladder_check(math.log(2.0), [0, 2000])):
        with pytest.raises(EvaluationOverflowError, match=r"2\^n is beyond the float range"):
            call()
    with pytest.raises(EvaluationOverflowError, match="at n = 2000"):
        ladder_check(math.log(2.0), [2000])
    assert math.isfinite(haar_closed_form(0.5, 1023))  # the last n whose 2^n is a float


def test_a_ladder_target_beyond_the_float_range_raises_naming_the_quantity():
    # cosh(2 lam), the lowering target, is the largest number in a ladder row;
    # it overflows once |2 lam| passes about 710.48
    for a_tilde in (700.0, -700.0, 356.0):
        with pytest.raises(EvaluationOverflowError,
                           match=rf"cosh\(2\^\(n\+1\) a_tilde\) is beyond the float range "
                                 rf"at n = 0, a_tilde = {a_tilde}"):
            ladder_check(a_tilde, [0])
    assert math.isfinite(ladder_check(355.0, [0])["ladder_rows"][0]["minus_target_a"])


U = 2.0**-53  # unit roundoff; one ulp is at most 2u relative


def test_closed_form_near_the_cosh_limit_against_mpmath():
    # For a0 > 1 the closed form is cosh(t), t = 2^n acosh(a0), with a0 exact.
    # acosh(a0) is off by at most 2 ulp <= 4u relative (glibc's stated bound),
    # the factor 2^n is exact, and cosh turns a relative error d of its argument
    # into t tanh(t) d (its condition number) before adding its own <= 4u.  To
    # first order the relative error is at most (4 t tanh t + 4) u: about 2800u
    # at t = 700, the price of the exponential, not of the code.
    with mpmath.workprec(200):
        for n in (1, 2, 5, 10, 20, 30):
            for t_target in (500.0, 650.0, 699.0, 699.9, 699.99):
                a0 = math.cosh(t_target / 2.0**n)
                t = mpmath.mpf(2) ** n * mpmath.acosh(a0)
                if a0 == 1.0 or t > COSH_ARG_LIMIT:
                    continue
                want = mpmath.cosh(t)
                got = haar_closed_form(a0, n)
                bound = (4 * t * mpmath.tanh(t) + 4) * U
                assert abs(got - want) / want <= bound, (n, a0)
    with pytest.raises(EvaluationOverflowError):
        haar_closed_form(math.cosh(700.01 / 2.0**10), 10)


def test_half_step_exact_rational_point():
    assert a2half_step(0.75) == 1.875


def test_half_step_doubles_sinh_argument():
    assert abs(a2half_step(math.sinh(1.0)) - math.sinh(2.0)) <= 1e-13
    for i in range(51):
        t = 5.0 * i / 50.0
        got = a2half_step(math.sinh(t))
        want = math.sinh(2.0 * t)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_half_step_is_odd_and_accurate_for_negative_arguments_against_mpmath():
    # evaluated at |a|, the map has no cancellation: seven roundings at most
    for k in range(0, 151):
        for a in (-(10.0**k), -(10.0**k) / 3.0):
            with mpmath.workprec(200):
                want = 2 * mpmath.mpf(a) * mpmath.sqrt(1 + mpmath.mpf(a) ** 2)
            got = a2half_step(a)
            assert got == -a2half_step(-a)
            assert abs(got - want) <= 8 * U * abs(want), a


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


def test_non_finite_start_is_refused():
    for a0 in (math.nan, math.inf, -math.inf):
        for step in (doubling_step, a2half_step):
            with pytest.raises(ValueError, match="a0 must be finite"):
                iterate_spectrum(a0, step=step, n=3)

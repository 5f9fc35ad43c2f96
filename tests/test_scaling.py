import importlib.util
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from waveq.gridfn import GridFunction, GridResolutionError, sample_op_applied
from waveq.laurent import Dyadic, EvaluationOverflowError, parse_laurent
from waveq.opalgebra import OpExpr
from waveq.qdeform import phase_index_minus, w_minus
from waveq import scaling
from waveq.scaling import (
    MAX_WORD_ORDER,
    CascadeDivergenceError,
    ScalingSystem,
    algebraic_form_check,
    b2_system,
    box_grid,
    box_midpoint_profile,
    box_profile,
    cascade,
    check_admissibility,
    deformed_scaling,
    deformed_scaling_report,
    haar_system,
    hat_grid,
    hat_profile,
    limit_build,
    limit_build_report,
    WordTooLargeError,
    wavelet_from_scaling,
    wavelet_selfequation_report,
)


# -- systems and admissibility ---------------------------------------------------


def test_haar_symbol():
    assert haar_system().g == parse_laurent("1 + T^-1")
    assert float(haar_system().finest_step) == 1.0


def test_b2_symbol():
    sys = b2_system()
    assert sys.g == parse_laurent("1/2 + T^-1/2 + 1/2*T^-1")
    assert float(sys.finest_step) == 0.5


def test_system_validation():
    with pytest.raises(ValueError):
        ScalingSystem("bad", {0: 1.0}, lam=2)
    with pytest.raises(ValueError):
        ScalingSystem("bad", {})
    with pytest.raises(ValueError):
        ScalingSystem("bad", {1.0 / 3.0: 1.0})
    # negative odd shifts are fine
    ScalingSystem("ok", {0: 2.0}, lam=-1)


def overlap_errors(rep) -> dict:
    """Distance of each shifted overlap from its target 2*delta_{l,0}."""
    return {l: abs(v - (2.0 if l == "0" else 0.0)) for l, v in rep["overlaps"].items()}


def test_admissibility_haar():
    rep = check_admissibility(haar_system())
    assert rep["coefficient_sum"] == 2.0
    assert all(err <= 1e-12 for err in overlap_errors(rep).values())
    assert rep["overlaps"]["0"] == 2.0


def test_admissibility_b2():
    rep = check_admissibility(b2_system())
    assert abs(rep["coefficient_sum"] - 2.0) <= 1e-12
    assert overlap_errors(rep)["0"] > 1e-12
    assert rep["overlaps"]["0"] == 1.5


def test_admissibility_constant_mask():
    rep = check_admissibility(ScalingSystem("const", {0: 2.0}))
    assert abs(rep["coefficient_sum"] - 2.0) <= 1e-12
    assert overlap_errors(rep)["0"] > 1e-12
    assert rep["overlaps"]["0"] == 4.0


def test_admissibility_note_mentions_normalization():
    assert "2*delta" in check_admissibility(haar_system())["normalization_note"]


# -- cascade ---------------------------------------------------------------------


def test_cascade_box_is_fixed():
    start = box_grid(4)
    res = cascade(haar_system(), start, 3)
    assert res.residual == 0.0
    assert res.iterations == 3
    assert res.phi.identical(start)
    assert res.history == (0.0, 0.0, 0.0)


def test_cascade_box_fixed_at_coarse_grid():
    res = cascade(haar_system(), box_grid(2), 1)
    assert res.residual == 0.0


def test_cascade_hat_is_fixed():
    start = hat_grid(3)
    res = cascade(b2_system(), start, 2)
    assert res.residual == 0.0
    assert res.phi.identical(start)
    assert res.phi.value_at(0.5) == 2.0 + 0j


def test_cascade_alignment_error():
    with pytest.raises(GridResolutionError, match="non-aligned"):
        cascade(b2_system(), box_grid(0), 1)


def test_cascade_amplitude_preserved():
    # no normalization: a doubled start stays doubled forever
    start = box_grid(4) * 2.0
    res = cascade(haar_system(), start, 5)
    assert res.phi.identical(start)
    assert res.phi.integral() == 2.0 + 0j
    assert all(d == 0.0 for d in res.history)


def test_cascade_mass_conserved_from_wrong_start():
    # box is not the hat mask's fixed point, but mass is conserved exactly
    # at every step (sum C_k = 2, and D carries no amplitude factor)
    start = box_grid(4)
    masses = [start.integral()]
    phi = start
    for _ in range(6):
        phi = cascade(b2_system(), phi, 1).phi
        masses.append(phi.integral())
    assert all(m == 1.0 + 0j for m in masses)


def test_cascade_converges_toward_hat_from_box():
    res = cascade(b2_system(), box_grid(5), 10)
    assert res.history[-1] < res.history[0]


def test_cascade_divergence():
    sysd = ScalingSystem("triple", {0: 3.0})
    with pytest.raises(CascadeDivergenceError, match="cascade divergence"):
        cascade(sysd, box_grid(4), 40)


def test_cascade_rejects_negative_iters():
    with pytest.raises(ValueError):
        cascade(haar_system(), box_grid(3), -1)


# -- wavelets --------------------------------------------------------------------


def test_wavelet_literal_haar_values():
    psi = wavelet_from_scaling(haar_system(), box_grid(4), form="literal")
    assert psi.value_at(0.5) == 1.0 + 0j
    assert psi.value_at(0.75) == 1.0 + 0j
    assert psi.value_at(1.0) == -1.0 + 0j
    assert psi.value_at(1.25) == -1.0 + 0j
    assert psi.value_at(0.25) == 0j
    assert psi.value_at(1.5) == 0j
    assert abs(psi.integral()) <= 1e-12


def test_wavelet_canonical_haar_values():
    phi = box_grid(4)
    psi = wavelet_from_scaling(haar_system(), phi, form="canonical")
    assert psi.value_at(0.25) == 1.0 + 0j
    assert psi.value_at(0.75) == -1.0 + 0j
    assert abs(psi.integral()) <= 1e-12
    # orthogonal to the scaling function: equal-area overlap cancels
    phi_fine = GridFunction.from_callable(box_profile, psi.resolution, psi.window)
    assert psi.inner(phi_fine) == 0j


def test_wavelet_literal_shift():
    sys1 = haar_system()
    sys3 = ScalingSystem("haar3", {0: 1.0, 1: 1.0}, lam=3)
    psi1 = wavelet_from_scaling(sys1, box_grid(4), form="literal")
    psi3 = wavelet_from_scaling(sys3, box_grid(4), form="literal")
    for x in (0.5, 0.75, 1.0, 1.25):
        assert psi3.value_at(x + 2.0) == psi1.value_at(x)


def test_wavelet_b2_canonical():
    psi = wavelet_from_scaling(b2_system(), hat_grid(4), form="canonical")
    assert abs(psi.integral()) <= 1e-12
    assert np.abs(psi.values).max() > 0.1


def test_wavelet_b2_literal_rejected():
    with pytest.raises(ValueError, match="integer mask steps"):
        wavelet_from_scaling(b2_system(), hat_grid(4), form="literal")


def test_wavelet_form_validation():
    with pytest.raises(ValueError, match="literal"):
        wavelet_from_scaling(haar_system(), box_grid(3), form="other")


# -- limit sequences ---------------------------------------------------------------


def test_limit_build_arctan_accuracy():
    rep = limit_build_report("haar", "arctan", (8, 12, 16, 20), 10)
    assert rep["errors"][20]["l1"] < 1e-3
    assert rep["monotone_l1"]


def test_limit_build_tanh_accuracy():
    f = limit_build("haar", "tanh", 20, 10)
    target = GridFunction.from_callable(box_midpoint_profile, 10, (-1, 2))
    assert f.l1_distance(target) < 1e-6


def test_limit_build_tanh_monotone_at_fine_grid():
    # at coarse grids the tanh seed saturates and successive errors tie at
    # zero; resolution 18 keeps all four errors distinct
    rep = limit_build_report("haar", "tanh", (8, 12, 16, 20), 18)
    assert rep["monotone_l1"]
    assert rep["errors"][20]["l1"] < 1e-6


def test_limit_build_tri_accuracy():
    rep = limit_build_report("b2", "tri", (8, 12, 16, 20), 10)
    assert rep["errors"][20]["l1"] < 1e-2
    assert rep["monotone_l1"]
    f = limit_build("b2", "tri", 20, 10)
    assert abs(f.value_at(0.5) - 2.0) < 1e-2


def test_limit_build_jump_midpoints():
    f = limit_build("haar", "arctan", 20, 10)
    assert abs(f.value_at(0.0) - 0.5) < 1e-3
    assert abs(f.value_at(1.0) - 0.5) < 1e-3
    assert abs(f.value_at(0.5) - 1.0) < 1e-3


def test_limit_build_validation():
    with pytest.raises(ValueError):
        limit_build("haar", "tri", 4, 6)
    with pytest.raises(ValueError):
        limit_build("b2", "arctan", 4, 6)
    with pytest.raises(ValueError):
        limit_build("haar", "arctan", 0, 6)
    with pytest.raises(ValueError):
        limit_build("spline7", "arctan", 4, 6)
    with pytest.raises(EvaluationOverflowError):
        limit_build("haar", "arctan", 61, 6)


def test_limit_built_box_near_orthonormal():
    # translates of the n = 20 profile are orthonormal to grid accuracy
    f = limit_build("haar", "arctan", 20, 10, window=(-2, 3))
    vals = f.values
    m = 1 << 10
    for shift in (0, 1, 2):
        rolled = np.roll(vals, shift * m)
        got = float((np.conj(vals) * rolled).sum().real) * 2.0**-10
        target = 1.0 if shift == 0 else 0.0
        assert abs(got - target) < 1e-3


# -- operator identity behind the construction ---------------------------------------


def test_algebraic_form_check_range():
    for n in range(0, 9):
        rep = algebraic_form_check(n)
        assert rep["residual"] == 0.0
        assert rep["word_terms"] == 2**n
    with pytest.raises(ValueError):
        algebraic_form_check(9)
    with pytest.raises(ValueError):
        algebraic_form_check(-1)


# -- deformed family -------------------------------------------------------------------


def test_deformed_scaling_unit_endpoint():
    f = deformed_scaling(1.0, 16, 8)
    target = GridFunction.from_callable(box_midpoint_profile, 8, (-1, 2))
    assert f.l1_distance(target) < 1e-2
    assert abs(f.integral() - 1.0) < 1e-12


def test_deformed_scaling_interior_sanity():
    f = deformed_scaling(0.5, 10, 7)
    assert abs(f.integral() - 1.0) < 1e-12
    assert np.isfinite(f.values).all()


def test_deformed_scaling_zero_endpoint_reported():
    rep = deformed_scaling_report((0.0, 0.5, 1.0), 10, 7)
    assert len(rep["rows"]) == 3
    # the s = 0 degenerate endpoint must produce a row, with no accuracy claim
    assert rep["rows"][0]["s"] == 0.0
    assert math.isfinite(rep["rows"][0]["l1_to_box"])
    assert rep["rows"][2]["l1_to_box"] < 0.05
    for row in rep["rows"]:
        raw = scaling._deformed_raw(row["s"], 10, 7, (-1, 2))
        assert row["raw_mass"] == abs(raw.integral()) > 0.0
        assert row["mass_cancellation"] >= 1.0 - 1e-12
    # the box's raw mass is its unit integral, less the seed's tails outside the
    # window (a share of order 2^-n); the interior mass is mostly cancellation
    assert abs(rep["rows"][2]["raw_mass"] - 1.0) < 2.0**-10
    assert rep["rows"][1]["mass_cancellation"] > 100.0


def test_deformed_scaling_validation():
    with pytest.raises(ValueError):
        deformed_scaling(1.5, 4, 6)
    with pytest.raises(ValueError):
        deformed_scaling(-0.1, 4, 6)
    with pytest.raises(ValueError):
        deformed_scaling(0.5, 0, 6)


def test_oversized_word_is_refused_before_anything_is_built(monkeypatch):
    def no_word(s):
        raise AssertionError("the word was built")

    monkeypatch.setattr(scaling, "w_minus", no_word)
    monkeypatch.setattr(scaling, "_deformed_columns", no_word)
    n = MAX_WORD_ORDER + 1
    assert issubclass(WordTooLargeError, ValueError)
    with pytest.raises(WordTooLargeError, match=f"word order {n} "):
        deformed_scaling(0.5, n, 4)
    with pytest.raises(WordTooLargeError):
        deformed_scaling_report((0.5, 1.0), n, 4)


U = 2.0**-53


def _expanded_raw(s, n, resolution):
    """The deformed profile sampled from the expanded 2^n-term word."""
    op = (OpExpr.identity() - OpExpr.translation(Dyadic(-1, n))) * (2.0 * w_minus(s)) ** n
    xs = GridFunction.zeros(resolution, (-1, 2)).x_points()
    return sample_op_applied(op, scaling._seed_arctan, xs)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.6, 0.9])
@pytest.mark.parametrize("n", [1, 5, 8])
def test_deformed_columns_match_the_expanded_word(s, n):
    c, a, m = scaling._deformed_columns(s, n)
    word = (2.0 * w_minus(s)) ** n
    assert len(c) == len(a) == len(word) == 2**n
    (mu,), (beta,) = set(word._val[0]), set(word._val[1])
    assert beta == n * s
    # Bounds, each side within half of them of the exact value: every shift is
    # a sum of n terms s 2^{ks}, bounded by A, formed through n rounded
    # products by 2^s and n sums (3 n u A); each coefficient is a product of
    # n computed unit phases e^{i mu a} (about 4u each) whose arguments carry
    # the shifts' error times |mu| (n of them, up to 3 n u A |mu| each); M is
    # a sum of n products 2^{ks} mu (3 n u times the sum of their sizes).
    big_a = sum(s * 2.0 ** (k * s) for k in range(n))
    mu_sizes = sum(2.0 ** (k * s) * abs(phase_index_minus(s)) for k in range(n))
    assert abs(m - mu) <= 6 * n * U * mu_sizes
    order = np.argsort(-a, kind="stable")  # normal-form order: descending shifts
    assert np.abs(a[order] - np.array(word._val[2])).max() <= 6 * n * U * big_a
    coeffs = np.array(word._re) + 1j * np.array(word._im)
    bound = 2 * n * (4 + 3 * n * abs(phase_index_minus(s)) * big_a) * U
    assert np.abs(c[order] - coeffs).max() <= bound


def _load_oracles():
    path = Path(__file__).resolve().parent.parent / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("waveq_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _gate_k(s, n, points, block):
    """Multiple k of u * sum|terms| that bounds the sampled word's error.

    The pairs are summed as real dot products over blocks of b terms, and
    the ceil(N/b) block sums are added into an accumulator: recursive
    summation at both levels (Higham, ch. 4, eq. 4.4) gives an error of at
    most gamma_{b + ceil(N/b)} sum_j |c_j| (|Delta_j| + |g| |arctan v_j|),
    and |c_j| = 1, |Delta_j| <= |arctan u| + |arctan v|, |g| <= |M| h.  Each
    term adds its own rounding: about 4u from each of the coefficient's n
    unit-phase products, and 8u for the pair, the mismatch factor, the final
    phase and 1/pi.  Not modelled: the shifts' own rounding
    (about n u |a_j|) moves each seed argument; at n = 8 the worst error
    measured against mpmath is 0.63 u * sum|terms|, far inside k.
    """
    b = max(1, block // points)
    _, _, m = scaling._deformed_columns(s, n)
    return (b + math.ceil(2**n / b)) * (1.0 + abs(m) * 2.0**-n) + 4 * n + 8


@pytest.mark.parametrize("s", [0.25, 0.5, 0.6, 0.9])
def test_deformed_word_is_within_the_summation_bound_of_mpmath(s):
    n, resolution, every = 8, 7, 23
    raw = scaling._deformed_raw(s, n, resolution, (-1, 2))
    xs = raw.x_points()[::every]
    ref = _load_oracles().deformed_values(s, n, xs)
    k = _gate_k(s, n, len(raw.values), scaling.SAMPLE_BLOCK)
    for got, (want, magnitude) in zip(raw.values[::every], ref):
        assert abs(got - complex(want)) <= k * U * float(magnitude)


@pytest.mark.parametrize("s", [0.3, 0.6, 0.9])
def test_deformed_blocks_of_one_and_seven_terms_agree_within_the_gate(s):
    n, resolution = 8, 7
    default = scaling._deformed_raw(s, n, resolution, (-1, 2))
    points = len(default.values)
    _, a, _ = scaling._deformed_columns(s, n)
    y = 2.0 ** (n * s) * default.x_points() + a[:, None]
    f = scaling._seed_arctan
    magnitude = (np.abs(f(y)) + np.abs(f(y - 2.0 ** (n * s - n)))).sum(axis=0)
    for terms in (1, 7):
        with mock.patch.object(scaling, "SAMPLE_BLOCK", terms * points):
            got = scaling._deformed_raw(s, n, resolution, (-1, 2))
        k = _gate_k(s, n, points, terms * points) + _gate_k(s, n, points, scaling.SAMPLE_BLOCK)
        assert (np.abs(got.values - default.values) <= k * U * magnitude).all()


@pytest.mark.parametrize("s", [0.0, 1.0])
@pytest.mark.parametrize("n", [4, 8])
def test_deformed_endpoints_are_the_expanded_word_bit_for_bit(s, n):
    raw = scaling._deformed_raw(s, n, 6, (-1, 2))
    assert raw.values.tobytes() == _expanded_raw(s, n, 6).tobytes()


# -- wavelet self-similarity report ------------------------------------------------------


def test_selfequation_report_shape():
    rep = wavelet_selfequation_report(resolution=6)
    for key in (
        "printed_residual_max",
        "printed_residual_l1",
        "symmetric_residual_max",
        "symmetric_residual_l1",
    ):
        assert key in rep
        assert math.isfinite(rep[key])
        assert rep[key] >= 0.0
    assert "not asserted" in rep["note"]


def test_profiles_exact_values():
    xs = np.array([-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5])
    assert list(box_profile(xs)) == [0, 1, 1, 1, 1, 0, 0]
    assert list(box_midpoint_profile(xs)) == [0, 0.5, 1, 1, 1, 0.5, 0]
    assert list(hat_profile(xs)) == [0, 0, 1, 2, 1, 0, 0]

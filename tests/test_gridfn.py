import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import waveq
from waveq import scaling
from waveq.laurent import EXPONENT_MERGE_TOL, Dyadic, EvaluationOverflowError, ExponentRangeError
from waveq.gridfn import (
    ExpSum,
    GridFunction,
    GridMismatchError,
    GridResolutionError,
    GridTooLargeError,
    NonFiniteWeightError,
    apply_op_expsum,
    apply_op_grid,
)
from waveq.opalgebra import OpExpr
from reference import term_by_term


def box(xs):
    xs = np.asarray(xs)
    return ((xs >= 0) & (xs < 1)).astype(complex)


def hat(xs):
    """Peak-2 tent on [0,1): 4x rising, 4-4x falling."""
    xs = np.asarray(xs)
    up = (xs >= 0) & (xs < 0.5)
    down = (xs >= 0.5) & (xs < 1.0)
    return np.where(up, 4 * xs, 0.0) + np.where(down, 4 - 4 * xs, 0.0) + 0j


# -- grid basics ---------------------------------------------------------


def test_lattice_layout():
    g = GridFunction.zeros(2, (-1, 1))
    assert len(g.values) == 8
    assert g.x_points()[0] == -1.0
    assert g.x_points()[-1] == 0.75
    assert g.step == 0.25


def test_from_callable_scalar_fallback():
    g1 = GridFunction.from_callable(box, 3, (-1, 2))
    g2 = GridFunction.from_callable(lambda x: 1.0 if 0 <= x < 1 else 0.0, 3, (-1, 2))
    assert np.array_equal(g1.values, g2.values)


def test_box_integral_exact():
    g = GridFunction.from_callable(box, 5, (-2, 3))
    assert g.integral() == 1.0 + 0j


def test_hat_inner_product_closed_form():
    """Riemann sum of the squared tent is exactly 4/3 + 8/(3 M^2), M = 2^J."""
    for j in (3, 5, 8, 10):
        g = GridFunction.from_callable(hat, j, (0, 1))
        m = 2**j
        assert g.inner(g) == (4 * m * m + 8) / (3 * m * m)
    g = GridFunction.from_callable(hat, 10, (0, 1))
    assert abs(g.inner(g) - 4 / 3) < 1e-3


def test_window_and_resolution_mismatch():
    a = GridFunction.zeros(3, (0, 1))
    b = GridFunction.zeros(3, (0, 2))
    c = GridFunction.zeros(4, (0, 1))
    with pytest.raises(GridMismatchError):
        a.inner(b)
    with pytest.raises(GridMismatchError):
        a.l1_distance(c)


def test_negative_resolutions_and_bad_windows_are_refused_before_any_sample_is_made():
    # every constructor checks the lattice before it shifts (hi - lo) by the resolution
    makers = [
        GridFunction.zeros,
        lambda res, window: GridFunction.from_callable(box, res, window),
        lambda res, window: GridFunction(res, window, []),
    ]
    for make in makers:
        with pytest.raises(ValueError, match="resolution must be >= 0"):
            make(-1, (-1, 2))
        for window in ((2, 2), (3, 1), (0.0, 1)):
            with pytest.raises(ValueError, match="window must be integers lo < hi"):
                make(2, window)
    assert len(GridFunction.zeros(0, (-1, 2)).values) == 3


def test_oversized_lattices_are_refused_before_any_sample_is_made():
    # 3 * 2^40 samples would be 24 TiB; the bound refuses them before numpy is asked
    makers = [
        GridFunction.zeros,
        lambda res, window: GridFunction.from_callable(box, res, window),
        lambda res, window: GridFunction(res, window, []),
        lambda res, window: apply_op_grid(OpExpr.identity(), GridFunction.zeros(0, window),
                                          out_resolution=res),
        lambda res, window: scaling.limit_build("haar", "arctan", 8, res, window),
    ]
    for make in makers:
        with pytest.raises(GridTooLargeError, match="MAX_SAMPLES"):
            make(40, (-1, 2))
    assert issubclass(waveq.GridTooLargeError, ValueError)


def test_value_at():
    g = GridFunction.from_callable(box, 4, (-1, 2))
    assert g.value_at(0.5) == 1.0
    assert g.value_at(-0.5) == 0.0
    assert g.value_at(5.0) == 0j  # off-window reads as zero
    with pytest.raises(GridResolutionError):
        g.value_at(1 / 64)


# -- operator application on grids ----------------------------------------


def test_translation_on_grid():
    g = GridFunction.from_callable(box, 4, (-2, 3))
    shifted = apply_op_grid(OpExpr.translation(-1), g)
    assert shifted.value_at(1.5) == 1.0
    assert shifted.value_at(0.5) == 0.0


def test_halving_word_fixes_box_exactly():
    g = GridFunction.from_callable(box, 4, (-2, 3))
    word = OpExpr.dilation(1) * (OpExpr.identity() + OpExpr.translation(-1))
    out = apply_op_grid(word, g)
    assert np.array_equal(out.values, g.values)


def test_translation_below_lattice_raises():
    g = GridFunction.from_callable(box, 3, (0, 1))
    with pytest.raises(GridResolutionError):
        apply_op_grid(OpExpr.translation(Dyadic(1, 5)), g)


def test_non_integer_dilation_raises():
    g = GridFunction.from_callable(box, 3, (0, 1))
    with pytest.raises(GridResolutionError):
        apply_op_grid(OpExpr.dilation(Dyadic(1, 1)), g)


def test_negative_dilation_needs_coarser_output():
    g = GridFunction.from_callable(lambda x: np.exp(-np.asarray(x) ** 2) + 0j, 4, (-2, 2))
    with pytest.raises(GridResolutionError):
        apply_op_grid(OpExpr.dilation(-1), g)
    out = apply_op_grid(OpExpr.dilation(-1), g, out_resolution=3, out_window=(-2, 2))
    for x in (0.0, 0.5, -1.0):
        assert out.value_at(x) == g.value_at(x / 2)


def test_output_window_differs_from_source():
    g = GridFunction.from_callable(box, 4, (0, 1))
    out = apply_op_grid(OpExpr.identity(), g, out_window=(-2, 3))
    assert out.value_at(0.5) == 1.0
    assert out.value_at(-1.0) == 0.0
    assert out.integral() == g.integral()


def test_unit_cell_constant_mass_preserved():
    """The halving word conserves the Riemann integral for cell-parity-balanced input."""
    rng = random.Random(5)
    res = 5
    cell_vals = [complex(rng.uniform(-1, 1)) for _ in range(3)]

    def cells(x):
        k = math.floor(x)
        return cell_vals[k] if 0 <= k < 3 else 0j

    g = GridFunction.from_callable(cells, res, (-2, 5))
    word = OpExpr.dilation(1) * (OpExpr.identity() + OpExpr.translation(-1))
    out = apply_op_grid(word, g)
    assert abs(out.integral() - g.integral()) < 1e-12


@pytest.mark.parametrize("mu", [0.0, 0.75])
@pytest.mark.parametrize("weight", [1.0, 1 - 0.5j])
def test_apply_op_grid_only_reads_its_source(weight, mu):
    rng = random.Random(25)
    samples = np.array([rng.randint(-256, 256) / 256 for _ in range(96)])
    g = GridFunction(5, (-1, 2), samples * weight)
    before = g.values.tobytes()
    op = (OpExpr.term(0.5, beta=1, alpha=0.25) + OpExpr.term(-1.25, alpha=-1.0)
          + OpExpr.term(0.375, mu=mu, beta=1, alpha=2.0))
    out = apply_op_grid(op, g)
    assert g.values.tobytes() == before
    assert not np.shares_memory(out.values, g.values)


def _applied_full_size(op, f):
    """apply_op_grid on f's own lattice, one full-size array per term: each term adds
    coeff * (samples * e^(i mu x)) where its source index is in the window.  The phase is
    held in a name: numpy reuses an unnamed temporary of 256 KiB or more as the product's
    output with the factors swapped, and its fused complex multiply is not commutative."""
    n, res = len(f.values), f.resolution
    xs = f.lo + np.arange(n) * f.step
    real = not (np.iscomplexobj(f.values) or any(t.coeff.imag or t.mu.value for t in op.terms()))
    out = np.zeros(n, float if real else complex)
    for t in op.terms():
        b = t.beta.dyadic.num
        shift = Fraction(t.alpha.dyadic.num, 1 << t.alpha.dyadic.log2_den) * (1 << res)
        idx = ((f.lo << (b + res)) - (f.lo << res) + int(shift)) + np.arange(n) * (1 << b)
        inside = (idx >= 0) & (idx < n)
        samples = f.values[idx[inside]]
        if t.mu.value != 0.0:
            phase = np.exp(1j * t.mu.value * xs[inside])
            samples = samples * phase
        out[inside] += (t.coeff.real if real else t.coeff) * samples
    return out


APPLIED_AT_14 = {
    "real, 3 terms": (False, OpExpr.term(0.5, beta=1, alpha=0.25) + OpExpr.term(-1.25, alpha=-1.0)
                      + OpExpr.term(0.375, beta=1, alpha=Dyadic(-3, 14))),
    # shifts past both window edges, phases on two terms, a complex source
    "complex, phases": (True, OpExpr.term(0.5 - 0.25j, mu=1.5, alpha=Dyadic(4097, 12))
                        + OpExpr.term(-1.25, alpha=-2.5) + OpExpr.term(2.0, mu=-3.0, beta=1,
                                                                      alpha=Dyadic(-7, 14))),
}


@pytest.mark.parametrize("name", sorted(APPLIED_AT_14))
def test_apply_op_grid_at_2_to_the_minus_14_is_the_full_size_formula(name):
    cplx, op = APPLIED_AT_14[name]
    rng = np.random.default_rng(26)
    n = 3 << 14
    samples = rng.integers(-256, 256, n) / 256
    if cplx:
        samples = samples + 1j * (rng.integers(-256, 256, n) / 256)
    samples[::11] *= -0.0  # signed zeros
    g = GridFunction(14, (-1, 2), samples)
    apply_op_grid(op, g)  # the first call also builds the op's term tuple and numpy's caches
    tracemalloc.start()
    try:
        got = apply_op_grid(op, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.values.dtype == (complex if cplx else float)
    assert got.values.tobytes() == _applied_full_size(op, g).tobytes()
    # the output plus one block of weighted samples, with 8 KiB for the Python objects
    assert peak <= got.values.nbytes + waveq.gridfn.SCRATCH_BYTES + (8 << 10)


# -- exponential sums -------------------------------------------------------


def test_expsum_action_rules():
    es = ExpSum.exponential(0.3j)
    shifted = apply_op_expsum(OpExpr.translation(2.0), es)
    ((c, r),) = shifted.terms()
    assert abs(r - 0.3j) < 1e-15
    assert abs(c - np.exp(0.6j)) < 1e-15

    dilated = apply_op_expsum(OpExpr.dilation(Dyadic(1, 1)), es)
    ((c, r),) = dilated.terms()
    assert abs(r - 0.3j * math.sqrt(2)) < 1e-15

    phased = apply_op_expsum(OpExpr.term(1.0, mu=1.5), es)
    ((c, r),) = phased.terms()
    assert abs(r - (0.3 + 1.5) * 1j) < 1e-15


def test_expsum_merge_and_prune():
    es = ExpSum([(1.0, 1j), (2.0, 1j + 1e-14), (-3.0, 2j), (3.0, 2j)])
    assert len(es) == 1
    assert abs(es.coefficient_of(1j) - 3.0) < 1e-15


def test_expsum_rates_merge_by_the_shared_chain_rule():
    step = 0.6 * EXPONENT_MERGE_TOL
    chain = [0.3 + k * step for k in range(4)]  # spans 1.8e-12 > tolerance
    ((c, r),) = ExpSum([(1.0, complex(v, 1.0)) for v in reversed(chain)]).terms()
    assert c == 4.0 and r == complex(chain[0], 1.0)  # the chain's first rate represents it
    assert len(ExpSum([(1.0, complex(-2.0, 0.5 + k * step)) for k in range(4)])) == 1
    assert len(ExpSum([(1.0, 0.3), (1.0, 0.3 + 1.5 * EXPONENT_MERGE_TOL)])) == 2
    # terms come in descending order of (real, imaginary) rate; cancelled ones go
    es = ExpSum([(1.0, -1.0), (1.0, 1j), (1.0, 2.0), (1e-16, 3.0), (1.0, 5j), (-1.0, 5j)])
    assert [r for _, r in es.terms()] == [2.0, 1j, -1.0]


def test_expsum_products_multiply_the_functions():
    a = ExpSum([(1.5, 0.25j), (-0.5 + 1j, 0.1 - 1j)])
    b = ExpSum([(2.0, 0.5), (1j, -0.3j)]) + 1  # a scalar is the rate-0 term
    xs = np.linspace(-2, 2, 17)
    assert np.allclose((a * b).sample(xs), a.sample(xs) * b.sample(xs), rtol=1e-14, atol=0)
    assert len(a * b) == 6 and a * b == b * a
    assert ExpSum.constant(2.0) * a == 2 * a and len(a * ExpSum()) == 0


def test_expsum_text_form():
    es = ExpSum([(2.0, 0.5)])
    assert str(es) == repr(es) == "ExpSum[((2+0j))e^((0.5+0j))x]"
    assert str(ExpSum()) == "ExpSum[0]"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.sampled_from([0, 0.5, -1.25, math.pi]),
                          st.sampled_from([0, 1, -1, Dyadic(1, 1), 0.3]), st.floats(-2, 2)),
                min_size=1, max_size=6),
       st.floats(-0.5, 0.5), st.floats(-3, 3))
def test_closed_form_action_matches_sampling(spec, lam_re, lam_im):
    op = OpExpr.zero()
    for re, im, mu, beta, alpha in spec:
        op = op + OpExpr.term(complex(re, im), mu=mu, beta=beta, alpha=alpha)
    lam, xs = complex(lam_re, lam_im), np.linspace(-2, 2, 9)
    closed = apply_op_expsum(op, ExpSum.exponential(lam)).sample(xs)
    sampled = term_by_term(op, lambda p: np.exp(lam * p), xs)
    # each term is c e^(lam (2^beta x + alpha)) e^(i mu x) on both sides, with
    # its exponent rounded in a different order: a relative error of a few
    # units of rounding u per unit of |exponent|, plus u per term in the sum
    u, bound = np.finfo(float).eps, np.zeros(xs.shape)
    for t in op.terms():
        mu, scale, alpha = t.mu.value, 2.0**t.beta.value, t.alpha.value
        size = abs(t.coeff) * np.abs(np.exp(lam * (scale * xs + alpha)))
        bound += size * (len(op) + abs(lam) * (scale * np.abs(xs) + abs(alpha)) + abs(mu * xs))
    assert np.all(np.abs(closed - sampled) <= 16 * u * bound)


def test_expsum_eval_overflow():
    es = ExpSum.exponential(1.0)
    with pytest.raises(EvaluationOverflowError):
        es.eval(800.0)
    with pytest.raises(EvaluationOverflowError):
        apply_op_expsum(OpExpr.translation(1000.0), es)


def test_grid_and_expsum_applications_agree():
    rng = random.Random(17)
    for _ in range(25):
        expr = OpExpr.zero()
        for _ in range(rng.randrange(1, 4)):
            expr = expr + OpExpr.term(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                mu=rng.choice([0, 1.0, -0.5]),
                beta=rng.choice([0, 1]),
                alpha=rng.choice([Dyadic(0), Dyadic(1, 1), Dyadic(-1, 2)]),
            )
        es = ExpSum.exponential(complex(rng.uniform(-0.3, 0.3), rng.uniform(-2, 2)))
        src = GridFunction.from_callable(es.sample, 6, (-4, 4))
        via_grid = apply_op_grid(expr, src, out_resolution=6, out_window=(-1, 1))
        via_sum = GridFunction.from_callable(apply_op_expsum(expr, es).sample, 6, (-1, 1))
        assert np.abs((via_grid - via_sum).values).max() <= 1e-10


def test_sampler_matches_expsum_for_fractional_dilation():
    expr = OpExpr.term(1.3, mu=0.7, beta=Dyadic(1, 1), alpha=Dyadic(-3, 2))
    es = ExpSum.exponential(0.41j)
    xs = np.linspace(-2, 2, 101)
    direct = term_by_term(expr, lambda p: np.exp(0.41j * p), xs)
    closed = apply_op_expsum(expr, es).sample(xs)
    assert np.max(np.abs(direct - closed)) < 1e-13


# -- sampling against the term-by-term rule ---------------------------------


def wave(p):
    return np.exp(0.3j * p) / (1.0 + p * p)


part = st.floats(-2, 2, allow_nan=False).filter(lambda x: abs(x) > 1e-3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    terms=st.lists(
        st.tuples(part, part, st.sampled_from([0, 0.5, -1.25]), st.integers(0, 2),
                  st.integers(-40, 40)),
        min_size=1, max_size=6,
    ),
)
def test_grid_application_agrees_with_sampling_on_lattice_operators(terms):
    """Integer dilations and translations on the 2^-5 lattice: reading the
    source grid by index equals sampling the same function at 2^b x + a."""

    def windowed(p):
        return np.where((p >= -4.0) & (p < 4.0), np.exp(-p * p) + 0.3j * np.sin(p), 0.0)

    op = OpExpr.zero()
    for re, im, mu, beta, k in terms:
        op = op + OpExpr.term(complex(re, im), mu=mu, beta=beta, alpha=Dyadic(k, 5))
    src = GridFunction.from_callable(windowed, 5, (-4, 4))
    via_grid = apply_op_grid(op, src, out_window=(-1, 1))
    sampled = term_by_term(op, windowed, via_grid.x_points())
    assert np.max(np.abs(via_grid.values - sampled)) <= 1e-13


# -- grid application against a point-by-point reference -----------------


def point_by_point(expr, f, res_out, window):
    """The grid rule one output point and one term at a time: exact Fraction
    source indices, terms added in order, the weight as the left factor.
    Products run on one-element arrays: numpy's complex multiply may fuse
    multiply-adds, so a Python complex product can differ in the last bit."""
    lo, hi = window
    out = []
    for i in range((hi - lo) << res_out):
        x = Fraction(lo) + Fraction(i, 1 << res_out)
        acc = 0j
        for t in expr.terms():
            b = t.beta.dyadic.num
            y = Fraction(2) ** b * x + Fraction(t.alpha.dyadic.num, 1 << t.alpha.dyadic.log2_den)
            k = (y - f.lo) * (1 << f.resolution)
            assert k.denominator == 1
            if not 0 <= k < len(f.values):
                continue  # zero outside the source window
            v = f.values[int(k) : int(k) + 1]
            if t.mu.value != 0.0:
                v = v * np.exp(1j * t.mu.value * np.array([float(x)]))
            acc += complex((t.coeff * v)[0])
        out.append(acc)
    return np.array(out, dtype=complex)


sample_value = st.sampled_from([0.0, -0.0, 1.0, -0.75, 0.3, 2.5e-3])


@st.composite
def grid_case(draw):
    res = draw(st.integers(0, 3))
    lo = draw(st.integers(-2, 1))
    hi = lo + draw(st.integers(1, 3))
    n = (hi - lo) << res
    re = draw(st.lists(sample_value, min_size=n, max_size=n))
    im = draw(st.lists(sample_value, min_size=n, max_size=n))
    res_out = max(0, res + draw(st.integers(-2, 2)))  # below, at or above the source's
    # every term needs 2^beta x on the source lattice: beta >= res_out - res
    terms = draw(st.lists(st.tuples(
        part, st.sampled_from([0.0, -0.0, 1.5]), st.sampled_from([0, 0, 0.5, -1.25]),
        st.integers(max(-2, res_out - res), 3), st.integers(-8 << res, 8 << res),
    ), max_size=5))
    window = draw(st.sampled_from([(lo, hi), (lo - 2, hi + 1), (lo, lo + 1), (hi + 1, hi + 3),
                                   (lo - 4, lo - 1)]))  # same, wider, narrower, disjoint
    op = OpExpr.zero()
    for c_re, c_im, mu, beta, k in terms:
        op = op + OpExpr.term(complex(c_re, c_im), mu=mu, beta=beta, alpha=Dyadic(k, res))
    return op, GridFunction(res, (lo, hi), np.array(re) + 1j * np.array(im)), res_out, window


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=grid_case())
@example(case=(OpExpr.zero(), GridFunction(2, (0, 1), [1, -0.0, 2, 3]), 2, (-1, 2)))
@example(case=(OpExpr.term(2.0, beta=1, alpha=7) + OpExpr.term(-0.5, alpha=-3),  # both off the window
               GridFunction(1, (0, 2), [1, 2, 3, 4]), 1, (0, 2)))
def test_grid_application_is_the_point_by_point_rule_bit_for_bit(case):
    op, src, res_out, window = case
    got = apply_op_grid(op, src, out_resolution=res_out, out_window=window)
    want = point_by_point(op, src, res_out, window)
    assert (got.resolution, got.window) == (res_out, window)
    assert np.asarray(got.values, complex).tobytes() == want.tobytes()


# -- the dtype follows the data --------------------------------------------


def test_real_data_stays_float64_through_every_grid_builder():
    haar, b2 = scaling.haar_system(), scaling.b2_system()
    box_g, hat_g = scaling.box_grid(5), scaling.hat_grid(5)
    grids = [
        GridFunction.zeros(2, (0, 1)), GridFunction(1, (0, 1), [1, -2]),
        GridFunction.from_callable(lambda x: 1.0 if 0 <= x < 1 else 0.0, 3, (-1, 2)),
        box_g, hat_g, scaling.cascade(haar, box_g, 2).phi, scaling.cascade(b2, hat_g, 2).phi,
        scaling.wavelet_from_scaling(haar, box_g, form="literal"),
        scaling.wavelet_from_scaling(haar, box_g, form="canonical"),
        scaling.wavelet_from_scaling(b2, hat_g, form="canonical"),
        scaling.limit_build("haar", "arctan", 8, 5), scaling.limit_build("b2", "tri", 8, 5),
        apply_op_grid(OpExpr.term(-0.5, beta=1, alpha=1) + OpExpr.identity(), box_g),
        apply_op_grid(OpExpr.term(complex(2.0, -0.0)), box_g, out_window=(-3, 4)),
        box_g * 3, 2.0 * box_g, box_g * (1.5 + 0j), box_g + hat_g, box_g - hat_g,
    ]
    assert [g.values.dtype for g in grids] == [np.float64] * len(grids)


def test_a_complex_coefficient_phase_or_source_gives_complex128():
    box_g = scaling.box_grid(4)
    wave_g = GridFunction.from_callable(wave, 4, (-1, 2))
    grids = [
        wave_g, GridFunction(0, (0, 2), [1, 2j]), GridFunction.from_callable(ExpSum.constant(1.0).sample, 3, (0, 1)),
        apply_op_grid(OpExpr.term(1j), box_g),
        apply_op_grid(OpExpr.identity() + OpExpr.term(0.5, alpha=1, mu=0.25), box_g),
        apply_op_grid(OpExpr.dilation(1), wave_g), box_g * 1j, box_g + wave_g,
        scaling.deformed_scaling(0.5, 4, 4),
    ]
    assert [g.values.dtype for g in grids] == [np.complex128] * len(grids)


def test_a_complex_write_into_a_real_grid_is_an_error_under_the_test_config():
    g = GridFunction.zeros(1, (0, 1))
    with pytest.raises(np.exceptions.ComplexWarning):
        g.values[:] = np.array([1.0 + 1.0j, 2.0])


def bits(z) -> bytes:
    return np.complex128(z).tobytes()


EDGE_SAMPLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e300,
                math.inf, -math.inf]
real_sample = st.floats(allow_nan=False) | st.sampled_from(EDGE_SAMPLES)


@st.composite
def real_case(draw):
    res = draw(st.integers(0, 3))
    lo = draw(st.integers(-2, 1))
    hi = lo + draw(st.integers(1, 3))
    n = (hi - lo) << res
    src = GridFunction(res, (lo, hi), draw(st.lists(real_sample, min_size=n, max_size=n)))
    other = GridFunction(res, (lo, hi), draw(st.lists(real_sample, min_size=n, max_size=n)))
    res_out = max(0, res + draw(st.integers(-2, 2)))
    terms = draw(st.lists(st.tuples(
        part | st.sampled_from([1e300, -5e-324]), st.sampled_from([0.0, -0.0]),
        st.integers(max(-2, res_out - res), 3), st.integers(-8 << res, 8 << res),
    ), max_size=5))
    op = OpExpr.zero()
    for c_re, c_im, beta, k in terms:
        op = op + OpExpr.term(complex(c_re, c_im), beta=beta, alpha=Dyadic(k, res))
    window = draw(st.sampled_from([(lo, hi), (lo - 2, hi + 1), (lo, lo + 1)]))
    return op, src, other, res_out, window


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=real_case())
@example(case=(OpExpr.identity() - OpExpr.translation(-1),
               GridFunction(0, (0, 4), [math.inf, -0.0, 5e-324, -math.inf]),
               GridFunction(0, (0, 4), [-0.0, 1.0, -5e-324, 2.0]), 0, (-1, 5)))
def test_a_real_grid_and_its_complex_copy_agree_bit_for_bit(case):
    """The real path gives the real parts of the complex one; integral, inner
    and np.abs are the same bits (test_cli compares the CSV).  inf * 0 is NaN,
    so the complex copy's imaginary part is +0 exactly where the applied value
    is finite, and the applied grids agree as wholes only when every value is."""
    op, src, other, res_out, window = case
    src_c, other_c = (GridFunction(g.resolution, g.window, g.values.astype(complex))
                      for g in (src, other))
    got = apply_op_grid(op, src, out_resolution=res_out, out_window=window)
    got_c = apply_op_grid(op, src_c, out_resolution=res_out, out_window=window)
    assert (got.values.dtype, got_c.values.dtype) == (np.float64, np.complex128)
    assert got_c.values.real.tobytes() == got.values.tobytes()
    finite = np.isfinite(got.values)
    assert np.array_equal(got_c.values.imag[finite], np.zeros(finite.sum()))
    assert not np.signbit(got_c.values.imag[finite]).any()
    pairs = [(src, src_c), (other, other_c)] + [(got, got_c)] * bool(finite.all())
    for real, cplx in pairs:
        assert bits(real.integral()) == bits(cplx.integral())
        assert np.abs(real.values).tobytes() == np.abs(cplx.values).tobytes()
    assert bits(src.inner(other)) == bits(src_c.inner(other_c))
    assert bits(other.inner(src)) == bits(other_c.inner(src_c))


def test_non_finite_weights_and_phase_rates_are_refused_by_name():
    g = GridFunction.from_callable(box, 3, (0, 1))
    inf, nan = float("inf"), float("nan")
    cases = [  # (operator, index of the refused term)
        (OpExpr.term(inf, alpha=5.0), 0),  # refused though it never reads the source
        (OpExpr.identity() + OpExpr.term(complex(nan, 1.0), alpha=-1), 1),
        (OpExpr.term(1.0, mu=inf), 0),
    ]
    for op, k in cases:
        assert len(op) > k
        with pytest.raises(NonFiniteWeightError, match=rf"term {k} has weight .* must be finite"):
            apply_op_grid(op, g)
    assert issubclass(NonFiniteWeightError, ValueError)
    assert waveq.NonFiniteWeightError is NonFiniteWeightError
    # the weight is the coefficient: no dilation factor can push it out of range
    assert np.isfinite(apply_op_grid(OpExpr.term(1e300, beta=40), g).values).all()


def test_dilation_powers_beyond_the_float_range_are_refused_by_name():
    refused = r"term 0 has dilation power 1100.0; .* beyond the float range"
    for op in (OpExpr.dilation(1100), OpExpr.dilation(1100) + OpExpr.term(2.0, mu=1.0, alpha=-1)):
        with pytest.raises(ExponentRangeError, match=refused):
            apply_op_expsum(op, ExpSum.constant(1.0))
    # the largest power below the range still scales rates
    op = OpExpr.dilation(1023)
    assert apply_op_expsum(op, ExpSum.exponential(0.5)).terms() == ((1.0, complex(2.0**1022)),)

import cmath
import math
import random

import mpmath
import pytest

from waveq import qdeform
from waveq.gridfn import ExpSum, apply_op_expsum
from waveq.laurent import Dyadic, EvaluationOverflowError, LaurentPoly
from waveq.opalgebra import OpExpr, commutator
from waveq.qdeform import (
    AlgebraParams,
    build_generators,
    check_closure,
    fourier_limit_report,
    invert_q_derivative,
    phase_index_minus,
    phase_index_plus,
    q_number,
    verify_general_closure,
    w0_alpha0_report,
    w_minus,
    w_plus,
    w_zero,
)

SINH_1 = math.sinh(1.0)


# -- q-numbers ---------------------------------------------------------------


def test_q_number_fixed_points():
    # same-argument sinh ratio: exactly 1.0 for any s
    rng = random.Random(11)
    for _ in range(50):
        s = rng.uniform(-5.0, 5.0)
        if s == 0.0:
            continue
        assert q_number(1.0, s) == 1.0
    # sinh(2 ln 2)/sinh(ln 2) = (15/8)/(3/4) = 5/2, exact in IEEE doubles
    assert q_number(2.0, math.log(2.0)) == 2.5


def test_q_number_zero_branch():
    assert q_number(3.7, 0.0) == 3.7
    assert q_number(-2.0, 0.0) == -2.0


def test_q_number_small_s_expansion():
    # [x]_s = x + x(x^2-1)s^2/6 + O(s^4), so |[x]_s - x| <= x^3 s^2 here
    rng = random.Random(23)
    for _ in range(200):
        x = rng.uniform(1.0, 5.0)
        s = rng.uniform(1e-6, 0.01)
        assert abs(q_number(x, s) - x) <= x**3 * s**2
    assert abs(q_number(3.0, 1e-6) - 3.0) <= 5e-12


def test_q_number_overflow():
    with pytest.raises(EvaluationOverflowError):
        q_number(800.0, 1.0)
    with pytest.raises(EvaluationOverflowError):
        q_number(2.0, 400.0)


def test_q_number_near_the_overflow_guard_against_mpmath():
    # [x]_s = sinh(t) / sinh(s), t = s x.  Rounding s x costs u relative, which
    # sinh amplifies by its condition number t coth(t) (about 700 here); each
    # sinh adds at most 2 ulp <= 4u (glibc's stated bound) and the division u,
    # so the relative error is at most (|t coth t| + 9) u to first order.
    u = 2.0**-53
    with mpmath.workprec(200):
        for s in (1.0, 0.7, 3.5, 1e-3, 2.0**-10, 650.0):
            for t_target in (650.0, 699.5, 699.999, -699.9):
                x = t_target / s
                t = mpmath.mpf(s) * x
                want = mpmath.sinh(t) / mpmath.sinh(s)
                got = q_number(x, s)
                bound = (abs(t * mpmath.coth(t)) + 9) * u
                assert abs(got - want) / abs(want) <= bound, (s, x)
    with pytest.raises(EvaluationOverflowError):
        q_number(700.5 / 0.7, 0.7)


# -- q-derivatives and their inversion ----------------------------------------


def test_invert_q_derivative_exact_zero_residual():
    # the reconstruction must hit T^{sign*s} with no float residual at all
    rng = random.Random(5)
    for _ in range(20):
        s = rng.uniform(0.1, 3.0)
        for kind in ("translation", "dilation"):
            for sign in (1, -1):
                rebuilt = invert_q_derivative(s, sign, kind)
                target = (
                    OpExpr.translation(sign * s)
                    if kind == "translation"
                    else OpExpr.dilation(sign * s)
                )
                assert (rebuilt - target).max_abs_coeff() == 0.0


def test_invert_q_derivative_on_exponential():
    lam = 1j * math.pi / 4
    basis = ExpSum.exponential(lam)
    for sign in (1, -1):
        op = invert_q_derivative(0.6, sign, "translation")
        out = apply_op_expsum(op, basis)
        # T^{sign*0.6} e^{lam x} = e^{lam*sign*0.6} e^{lam x}
        got = out.coefficient_of(lam)
        assert abs(got - cmath.exp(lam * sign * 0.6)) <= 1e-12

        opd = invert_q_derivative(0.6, sign, "dilation")
        outd = apply_op_expsum(opd, basis)
        assert abs(outd.coefficient_of(lam * 2.0 ** (sign * 0.6)) - 1.0) <= 1e-12


def test_invert_q_derivative_validation():
    with pytest.raises(ValueError):
        invert_q_derivative(0.0, 1)
    with pytest.raises(ValueError):
        invert_q_derivative(1.0, 2)


# -- the flagship generator configuration --------------------------------------


def test_generators_at_unit_parameters_exact_forms():
    gs = build_generators(AlgebraParams(1.0, 1.0))
    half = 0.5
    assert gs.w0 == (OpExpr.translation(1) + OpExpr.translation(-1)) * half
    assert 2.0 * w_minus(1.0) == OpExpr.dilation(1) * (
        OpExpr.identity() + OpExpr.translation(-1)
    )
    assert 2.0 * w_plus(1.0) == OpExpr.dilation(-1) * (
        OpExpr.identity() + OpExpr.translation(1)
    )
    expected_f = (
        OpExpr.translation(2)
        + OpExpr.translation(-1)
        - OpExpr.translation(Dyadic(1, 1))
        - OpExpr.translation(Dyadic(-1, 1))
    ) * 0.25
    assert gs.f == expected_f
    expected_g = (
        OpExpr.translation(1)
        + OpExpr.translation(-1)
        - OpExpr.translation(2)
        - OpExpr.translation(-2)
    ) * 0.5
    assert gs.g == expected_g


def test_closure_exact_at_unit_parameters():
    report = check_closure(AlgebraParams(1.0, 1.0))
    assert report["r1"] == 0.0
    assert report["r2"] == 0.0
    assert report["r3"] == 0.0
    assert report["max_residual"] == 0.0


def test_closure_nontrivial_without_g():
    # dropping g must break the first identity by an O(1) margin, which
    # shows the exact zero above is not an accident of empty commutators
    gs = build_generators(AlgebraParams(1.0, 1.0))
    bare = commutator(gs.w0, gs.w_plus).max_abs_coeff()
    assert bare > 0.1


def test_closure_generic_parameters():
    report = check_closure(AlgebraParams(2.0, 0.5))
    assert report["max_residual"] < 1e-12


def test_closure_rejects_degenerate_s():
    with pytest.raises(ValueError):
        build_generators(AlgebraParams(0.0, 1.0))


def test_constant_term_report():
    rep = w0_alpha0_report()
    re, im = rep["from_formula"]
    assert abs(re) < 1e-15
    assert abs(im - 1.0 / (2.0 * SINH_1)) < 1e-15
    # the constant stated alongside the formula differs by a factor of 2;
    # the report records both, and they disagree
    assert abs(complex(re, im) - 1j / (4.0 * SINH_1)) > 1e-12
    assert rep["prose_value"] == [0.0, 1.0 / (4.0 * SINH_1)]


def test_closure_builds_the_w0_alpha0_constant_at_most_once(monkeypatch):
    built = []

    def counting(s, alpha):
        built.append((s, alpha))
        return w_zero(s, alpha)

    monkeypatch.setattr(qdeform, "w_zero", counting)
    first, second = (check_closure(AlgebraParams(0.61, 1.3))["w0_alpha0_constant"]
                     for _ in range(2))
    assert built.count((1.0, 0.0)) <= 1
    assert first == second == w0_alpha0_report()
    first["from_formula"][1] = 0.0  # each report owns its dict and lists
    assert second == w0_alpha0_report()


def test_params_derived_constants():
    assert AlgebraParams(1.0, 1.0).q == math.e


def test_ladder_commutator_matches_f_on_exponentials():
    # eigen-coefficient of [W+, W-] computed by operator application must
    # agree with direct evaluation of f on the same exponential
    for s, alpha in ((1.0, 1.0), (2.0, 0.5), (0.7, 1.3)):
        gs = build_generators(AlgebraParams(s, alpha))
        for lam in (0.37, -0.9 + 0.4j, 1j):
            basis = ExpSum.exponential(lam)
            pm = apply_op_expsum(gs.w_plus, apply_op_expsum(gs.w_minus, basis))
            mp = apply_op_expsum(gs.w_minus, apply_op_expsum(gs.w_plus, basis))
            f_val = apply_op_expsum(gs.f, basis).coefficient_of(lam)
            got = pm.coefficient_of(lam) - mp.coefficient_of(lam)
            assert abs(got - f_val) <= 1e-12


# -- the general two-symbol family ---------------------------------------------


def test_general_closure_reduces_to_unit_configuration():
    j0 = LaurentPoly.from_dict({1: 0.5, -1: 0.5})
    j = LaurentPoly.from_dict({0: 0.5, 1: 0.5})
    rep = verify_general_closure(j0, j, 1.0)
    assert rep["max_residual"] == 0.0
    assert abs(rep["j_at_one"] - 1.0) <= 1e-12


def test_general_closure_quadratic_symbol():
    # j = (1 + T^(1/2))^2/4 normalizes to j(1) = 1 and closes exactly
    j0 = LaurentPoly.from_dict({1: 0.5, -1: 0.5})
    j = LaurentPoly.from_dict({0: 0.25, Dyadic(1, 1): 0.5, 1: 0.25})
    rep = verify_general_closure(j0, j, 1.0)
    assert rep["max_residual"] == 0.0
    assert abs(rep["j_at_one"] - 1.0) <= 1e-12


def test_general_closure_generic_parameters():
    rng = random.Random(77)
    for _ in range(10):
        j0 = LaurentPoly.from_dict(
            {k: rng.uniform(-1, 1) for k in range(-2, 3)}
        )
        coeffs = [rng.uniform(0.1, 1.0) for _ in range(3)]
        total = sum(coeffs)
        j = LaurentPoly.from_dict(
            {k: c / total for k, c in enumerate(coeffs)}
        )
        s = rng.uniform(0.2, 2.5)
        rep = verify_general_closure(j0, j, s)
        assert rep["max_residual"] <= 1e-12
        assert abs(rep["j_at_one"] - 1.0) <= 1e-12


def test_general_closure_trivial_j():
    rep = verify_general_closure(
        LaurentPoly.from_dict({1: 0.5, -1: 0.5}), LaurentPoly.one(), 1.0
    )
    assert rep["term_counts"]["f_tilde"] == 0
    assert rep["r3"] == 0.0


def test_general_closure_recursion_scripts():
    j0 = LaurentPoly.from_dict({1: 0.5, -1: 0.5})
    j = LaurentPoly.from_dict({0: 0.5, 1: 0.5})
    # the quadratic recursion candidate for the halving symbol leaves an
    # order-one residual; it is reported, not asserted
    rep = verify_general_closure(
        j0, j, 1.0, script_g={0: -0.5, 1: 1.0, 2: -1.0}
    )
    assert rep["recursion_residual_g"] > 0.1

    rep2 = verify_general_closure(
        j0, LaurentPoly.one(), 1.0, script_f={}
    )
    assert rep2["recursion_residual_f"] == 0.0


def test_phase_indices_cancel():
    # the P exponents of the two ladder halves are tuned so products of
    # opposite halves carry no leftover phase factor
    for s in (0.3, 1.0, 2.7):
        assert abs(phase_index_plus(s) + 2.0**-s * phase_index_minus(s)) < 1e-15


# -- the triple as one instance of the two-symbol family -------------------------

U = 2.0**-53


def _family_grid():
    """Seeded (s, alpha) points: the flagship s = 1 at several alpha, then
    s in the range the benchmark draws and beyond it, alpha never 0."""
    rng = random.Random(13)
    points = [(1.0, a) for a in (1.0, 0.5, 1.3, 1.8)]
    points += [(rng.uniform(0.3, 3.0), rng.uniform(0.2, 1.8)) for _ in range(60)]
    return points


def _exact_terms(op):
    return [(t.coeff, t.mu.value, t.beta.value, t.alpha.value) for t in op.terms()]


def _unit_phase(theta):
    return 1.0 + 0j if theta == 0.0 else cmath.exp(1j * theta)


def reference_g_f(s, alpha):
    """g and f of the (s, alpha) triple by hand expansion, with each phase
    angle written out as a product; returns (g, f, largest g angle,
    largest f angle)."""
    c_plus, c_minus = (t.coeff for t in w_zero(s, alpha).terms())
    theta = s * alpha * (1.0 + 2.0**s) * (s - 1.0) / 2.0
    wide = (2.0**s) * s * alpha
    g = w_zero(s, alpha) - (
        OpExpr.term(_unit_phase(theta) * c_plus, alpha=wide)
        + OpExpr.term(_unit_phase(-theta) * c_minus, alpha=-wide)
    )
    theta_p = s * (1.0 + 2.0**s) * (s - 1.0) / 2.0
    theta_m = s * (1.0 + 2.0**-s) * (s - 1.0) / 2.0
    one = OpExpr.identity()
    f = (
        (one + OpExpr.translation((2.0**s) * s, coeff=_unit_phase(theta_p)))
        * (one + OpExpr.translation(-s))
        - (one + OpExpr.translation(-(2.0**-s) * s, coeff=_unit_phase(theta_m)))
        * (one + OpExpr.translation(s))
    ) * 0.25
    return g, f, abs(theta), max(abs(theta_p), abs(theta_m))


def test_triple_ladders_are_the_family_ladders_of_one_plus_t_to_the_s_over_two():
    for s, alpha in _family_grid():
        gs = build_generators(AlgebraParams(s, alpha))
        assert _exact_terms(gs.w_plus) == _exact_terms(w_plus(s))
        assert _exact_terms(gs.w_minus) == _exact_terms(w_minus(s))
        # and the hand-written halves 1/2 P D^-+s (1 + T^+-s), bit for bit
        one = OpExpr.identity()
        hand_plus = OpExpr.term(0.5, mu=phase_index_plus(s), beta=-s) * (
            one + OpExpr.translation(s))
        hand_minus = OpExpr.term(0.5, mu=phase_index_minus(s), beta=s) * (
            one + OpExpr.translation(-s))
        assert _exact_terms(gs.w_plus) == _exact_terms(hand_plus)
        assert _exact_terms(gs.w_minus) == _exact_terms(hand_minus)


def test_closure_residuals_are_the_general_closure_residuals_of_the_triple():
    for s, alpha in _family_grid():
        triple = check_closure(AlgebraParams(s, alpha))
        family = verify_general_closure(
            w_zero(s, alpha).to_laurent(), LaurentPoly.from_dict({0: 0.5, s: 0.5}), s)
        for r in ("r1", "r2", "r3", "max_residual"):
            assert triple[r] == family[r], (s, alpha, r)


def test_g_and_f_agree_with_the_hand_expansion_to_rounding():
    # Each phase angle is one product of the same floats in both forms:
    # the hand expansion forms s*alpha*(1 + 2^s)*(s - 1)/2 (four roundings:
    # s*alpha, 1 + 2^s, s - 1, and the products), the family forms
    # nu' = (s - 1)(1 + 2^s)/2 (three) times the exponent s*alpha (one, plus
    # one for s*alpha itself); the f angles take four roundings each way.
    # So the two angles differ by at most 10 u |theta| to first order, and
    # e^{i theta} moves by as much.  Each side's complex exp adds at most
    # 2 u per component (3 u in modulus), and g's product with c_+- adds
    # sqrt(5) u per side; f's factors 1/2 and 1/4 are exact.  Hence
    # |dc| <= |c| u (10 |theta| + 6 + 5) for g and |c| u (10 |theta| + 6)
    # for f; both are checked against |c| u (10 |theta| + 12), with the
    # second-order terms in the one unit of slack.
    worst = 0.0
    for s, alpha in _family_grid():
        gs = build_generators(AlgebraParams(s, alpha))
        g_ref, f_ref, theta_g, theta_f = reference_g_f(s, alpha)
        for got, ref, theta in ((gs.g, g_ref, theta_g), (gs.f, f_ref, theta_f)):
            assert len(got) == len(ref)
            for a, b in zip(got.terms(), ref.terms()):
                assert a.alpha == b.alpha and a.mu == b.mu and a.beta == b.beta
                bound = abs(b.coeff) * U * (10.0 * theta + 12.0)
                assert abs(a.coeff - b.coeff) <= bound, (s, alpha)
                worst = max(worst, abs(a.coeff - b.coeff) / abs(b.coeff))
            if s == 1.0:
                assert _exact_terms(got) == _exact_terms(ref)
    assert worst > 0.0  # s != 1 does move g and f by rounding


# -- Fourier limit --------------------------------------------------------------


def test_fourier_limit_smoke():
    rep = fourier_limit_report()
    assert rep["w0_error_monotone"]
    finest = [r for r in rep["rows"] if r["s"] == 1e-4]
    assert finest
    for row in finest:
        assert row["w0_eigenvalue_error"] < 1e-3
        assert row["wplus_coeff_error"] < 1e-3
        assert row["wminus_coeff_error"] < 1e-3
        assert row["wplus_frequency_error"] < 1e-2
        assert row["wminus_frequency_error"] < 1e-2


def test_w_zero_alpha_two_eigenvalue():
    # W0(s, 2) acts on e^{inx} with an eigenvalue tending to n itself
    w0 = w_zero(1e-3, 2.0)
    out = apply_op_expsum(w0, ExpSum.exponential(2j))
    assert abs(out.coefficient_of(2j) - 2.0) < 5e-3

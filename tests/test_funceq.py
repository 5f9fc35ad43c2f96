import math
import random
from unittest import mock

import mpmath
import numpy as np
import pytest

from waveq import funceq
from waveq.funceq import (
    ChiSolve,
    GammaMap,
    NoSolutionInWindowError,
    casimir_constancy_check,
    gamma_eval,
    gamma_inverse,
    gamma_ladder_report,
    prop1_solve,
    solve_casimir_chi,
    solve_refinement,
    suq2_bridge_check,
)
from waveq.laurent import Dyadic, EvaluationOverflowError, Exponent, LaurentPoly, parse_laurent
from waveq.qdeform import AlgebraParams, build_generators


HALF = Dyadic(1, 1)


def test_refinement_unit_shift_mask():
    c = parse_laurent("1 + T^-1")
    solve = solve_refinement(c, 2)
    assert solve.b == parse_laurent("1 - T^-1")
    assert solve.rho == 2.0 / 2.0
    assert solve.residual == 0.0
    assert solve.zero_order == 1


def test_refinement_squared_half_shift_mask():
    c = parse_laurent("1/2 + T^-1/2 + 1/2*T^-1")
    solve = solve_refinement(c, 2)
    assert solve.b == parse_laurent("1 - 2*T^-1/2 + T^-1")
    assert solve.rho == 0.5
    assert solve.residual == 0.0
    assert solve.zero_order == 2


def test_refinement_constant_mask():
    solve = solve_refinement(LaurentPoly.scalar(2.0), 1)
    assert solve.b == LaurentPoly.one()
    assert solve.rho == 2.0
    assert solve.zero_order == 0


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("window", [1, 4])
def test_refinement_eighth_step_bspline_mask(m, window):
    """c = 2((1 + T^-1/8)/2)^m has b = (1 - T^-1/8)^m and rho = 2^(1-m)."""
    step = Dyadic(-1, 3)
    half = LaurentPoly.from_dict({0: 0.5, step: 0.5})
    diff = LaurentPoly.from_dict({0: 1.0, step: -1.0})
    c, want = LaurentPoly.scalar(2.0), LaurentPoly.one()
    for _ in range(m):
        c, want = c * half, want * diff
    solve = solve_refinement(c, window)
    assert solve.rho == 2.0 ** (1 - m)
    assert solve.zero_order == m
    assert solve.b == want
    assert solve.residual == 0.0


def bspline_mask(h: Dyadic, m: int) -> LaurentPoly:
    """2((1 + T^-h)/2)^m."""
    half = LaurentPoly.from_dict({0: 0.5, Dyadic(-h.num, h.log2_den): 0.5})
    c = LaurentPoly.scalar(2.0)
    for _ in range(m):
        c = c * half
    return c


@pytest.mark.parametrize("h", [Dyadic(1, 0), Dyadic(1, 1), Dyadic(1, 2), Dyadic(1, 3)],
                         ids=["1", "1/2", "1/4", "1/8"])
@pytest.mark.parametrize("m", range(1, 7))
def test_every_bspline_mask_gives_its_exact_detail_symbol(m, h):
    """b = (1 - T^-h)^m with rho = 2^(1-m) and residual exactly 0 in any window
    that holds b."""
    want = LaurentPoly.one()
    for _ in range(m):
        want = want * LaurentPoly.from_dict({0: 1.0, Dyadic(-h.num, h.log2_den): -1.0})
    for window in (math.ceil(m * h.num / 2**h.log2_den), 12):
        solve = solve_refinement(bspline_mask(h, m), window)
        assert solve.b == want
        assert (solve.rho, solve.zero_order, solve.residual) == (2.0 ** (1 - m), m, 0.0)


def test_refinement_reaches_every_zero_order_the_window_holds():
    # T * 2((1 + T^-1/8)/2)^16 spans [-1, 1]: its detail symbol has a zero of
    # order 16, past the reference scan's last candidate m = 8 * window + 4
    c = parse_laurent("T^1") * bspline_mask(Dyadic(1, 3), 16)
    want = parse_laurent("T^1")
    for _ in range(16):
        want = want * parse_laurent("1 - T^-1/8")
    solve = solve_refinement(c, 1)
    assert solve.b == want
    assert (solve.rho, solve.zero_order, solve.residual) == (2.0**-15, 16, 0.0)


def test_refinement_unique_in_growing_windows():
    c = parse_laurent("1 + T^-1")
    want = parse_laurent("1 - T^-1")
    for window in (2, 3, 4, 6):
        solve = solve_refinement(c, window)
        assert solve.b == want
        assert solve.rho == 1.0


def test_refinement_residual_identity_holds():
    c = parse_laurent("1/2 + T^-1/2 + 1/2*T^-1")
    solve = solve_refinement(c, 3)
    lhs = c.substitute_power(HALF) * solve.b.substitute_power(HALF)
    assert lhs == solve.b * solve.rho


def test_refinement_no_solution_in_window():
    # the matching detail symbol needs exponents down to -4, so a window
    # of 3 cannot hold it
    c = parse_laurent("1 + T^-4")
    with pytest.raises(NoSolutionInWindowError):
        solve_refinement(c, 3)
    solve = solve_refinement(c, 4)
    assert solve.b == parse_laurent("1 - T^-4")


def test_the_solvers_take_no_svd():
    with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("svd called")):
        solve_refinement(bspline_mask(Dyadic(1, 2), 3), 12)
        prop1_solve(16)


# -- the windowed SVD scan solve_refinement replaced, kept as a reference -----

SVD_NULLSPACE_TOL = 1e-10


def _svd_vector_to_poly(v, cols, q):
    peak = float(np.abs(v).max())
    live = [i for i in range(len(cols)) if abs(v[i]) > 1e-11 * peak]
    lead = v[live[-1]]  # cols ascend, so the last survivor is the leading term
    return LaurentPoly(
        (Exponent.exact(Dyadic(cols[i], q)), complex(v[i] / lead)) for i in live
    )


def reference_scan(c, support_bound):
    """Candidates rho = c(1)/2^m in ascending m, each matched on the grid
    2^-q Z (q at least 2) with |exponent| <= support_bound, one full SVD per
    candidate; the first one-dimensional nullspace whose residual (computed
    in the normal form) is at most RESIDUAL_TOL wins.  Returns (b, rho, m),
    or the name of the outcome when there is none."""
    q0, mask = funceq._mask_exponents(c)
    q = max(q0, 2)
    mask = [(a << (q - q0), cc) for a, cc in mask]
    c_at_one = c.eval_phase(0.0)
    if abs(c_at_one) <= 1e-12:
        raise ValueError("mask must not vanish at T = 1")
    steps = support_bound << q
    cols = list(range(-steps, steps + 1))
    for m in range(steps + 5):
        rho = c_at_one / 2.0**m
        row_of, entries = {}, []
        for j, n in enumerate(cols):
            for a, cc in mask:
                entries.append((row_of.setdefault(a + n, len(row_of)), j, cc))
            entries.append((row_of.setdefault(2 * n, len(row_of)), j, -rho))
        a = np.zeros((len(row_of), len(cols)), dtype=complex)
        for i, j, v in entries:
            a[i, j] += v
        _, s, vh = np.linalg.svd(a)
        rank = int((s > SVD_NULLSPACE_TOL * s[0]).sum()) if s[0] > 0.0 else 0
        basis = [vh[i].conj() for i in range(rank, vh.shape[0])]
        if len(basis) > 1:
            return "non-unique"
        if basis:
            b = _svd_vector_to_poly(basis[0], cols, q)
            lhs = c.substitute_power(HALF) * b.substitute_power(HALF)
            if (lhs - b * rho).max_abs_coeff() <= funceq.RESIDUAL_TOL:
                return b, rho, m
    return "no solution"


SCAN_CASES = [
    (bspline_mask(h, m), window)
    for m in (1, 2, 3, 4)
    for h in (Dyadic(1, 0), Dyadic(1, 1), Dyadic(1, 2), Dyadic(1, 3))
    for window in (1, 2, 4, 8, 12)
] + [
    (parse_laurent("0.7 + 1.3*T^-1"), 4),
    (LaurentPoly.from_dict({0: 0.6 + 0.2j, Dyadic(-1, 0): 1.4 - 0.2j}), 4),
    (bspline_mask(Dyadic(1, 1), 3) * (0.6 + 0.8j), 4),  # complex rho
    (parse_laurent("1 + T^-4"), 3),  # NoSolutionInWindowError
    (parse_laurent("1 + T^-4"), 4),
]


def random_masks(seed: int, count: int):
    """Seeded masks in windows 1 to 3: shifted and scaled B-spline products
    (solvable), and dyadic, decimal and complex ones (mostly not)."""
    rng = random.Random(seed)
    for i in range(count):
        kind = i % 4
        if kind == 0:
            c = LaurentPoly.from_dict({Dyadic(rng.randrange(-4, 5), 2): 2.0})
            c = c * rng.choice((1, 0.3, 0.6 + 0.8j, 1 / 3))
            for _ in range(rng.randrange(1, 6)):
                c = c * LaurentPoly.from_dict({0: 0.5, Dyadic(-1, rng.randrange(4)): 0.5})
        elif kind == 1:
            c = LaurentPoly.from_dict({Dyadic(rng.randrange(-8, 9), 3): rng.randrange(-8, 9) / 4
                                       for _ in range(rng.randrange(1, 4))})
        elif kind == 2:
            c = LaurentPoly.from_dict({Dyadic(rng.randrange(-4, 5), 2): round(rng.uniform(-2, 2), 2)
                                       for _ in range(rng.randrange(1, 4))})
        else:
            k = rng.randrange(1, 3)
            c = parse_laurent(f"1 + T^-{k}/4 + T^-{2 * k}/4") * rng.choice((1, 0.3, 0.6 + 0.8j))
        yield c, rng.choice((1, 2, 3))


def test_refinement_recursion_agrees_with_the_svd_scan():
    outcomes = set()
    for c, window in SCAN_CASES + list(random_masks(20260, 120)):
        try:
            want = reference_scan(c, window)
        except ValueError as exc:  # a mask that vanishes at T = 1
            with pytest.raises(ValueError, match=str(exc)):
                solve_refinement(c, window)
            outcomes.add("ValueError")
            continue
        if isinstance(want, str):
            assert want == "no solution", (str(c), window)
            with pytest.raises(NoSolutionInWindowError):
                solve_refinement(c, window)
            outcomes.add(want)
            continue
        b, rho, m = want
        got = solve_refinement(c, window)
        assert repr(got.rho) == repr(rho) and got.zero_order == m, (str(c), window)
        assert (got.b - b).max_abs_coeff() <= 1e-9, (str(c), window)
        assert got.residual <= funceq.RESIDUAL_TOL
        outcomes.add("solved")
    assert outcomes == {"solved", "no solution", "ValueError"}


def test_refinement_rejects_vanishing_mask_value():
    with pytest.raises(ValueError):
        solve_refinement(parse_laurent("1 - T^-1"), 2)
    with pytest.raises(ValueError):
        solve_refinement(parse_laurent("1 + T^-1"), 0)


def test_chi_single_link():
    chi = solve_casimir_chi(parse_laurent("T^1 - T^2")).chi
    assert chi == parse_laurent("T^1")


def test_chi_known_ladder_symbol():
    r = parse_laurent("1/4*T^2 - 1/4*T^1/2 - 1/4*T^-1/2 + 1/4*T^-1")
    solve = solve_casimir_chi(r)
    assert solve.free_constant
    want = parse_laurent("-1/4*T^1 - 1/4*T^1/2 - 1/4*T^-1/2")
    assert (solve.chi - want).max_abs_coeff() <= 1e-15


def test_chi_telescopes_exactly():
    rng = random.Random(8226202)
    for _ in range(20):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            base = rng.choice([1, 3, 5, -1, -3])
            depths = rng.sample(range(-2, 4), rng.randrange(2, 4))
            vals = [rng.uniform(-2, 2) for _ in depths[:-1]]
            vals.append(-sum(vals))
            for d, v in zip(depths, vals):
                e = Dyadic(base << d, 0) if d >= 0 else Dyadic(base, -d)
                terms[e] = terms.get(e, 0.0) + v
        r = LaurentPoly.from_dict(terms)
        chi = solve_casimir_chi(r).chi
        resid = chi - chi.substitute_power(2) - r
        assert resid.max_abs_coeff() <= 1e-12


def test_chi_gap_in_chain():
    # exponents 1 and 4 skip 2; the running sum still lives there
    chi = solve_casimir_chi(parse_laurent("T^1 - T^4")).chi
    assert chi == parse_laurent("T^1 + T^2")


def test_chi_inconsistent_chain():
    with pytest.raises(ValueError, match="inconsistent chain"):
        solve_casimir_chi(parse_laurent("T^1 - 2*T^2"))


def test_chi_rejects_constant_term():
    with pytest.raises(ValueError):
        solve_casimir_chi(parse_laurent("1 + T^1 - T^2"))


def test_casimir_constant_on_ladder():
    report = casimir_constancy_check(range(0, 4), math.log(2.0))
    assert report["max_spread"] <= 1e-11
    assert report["max_ordering_difference"] <= 1e-11
    assert abs(report["reference"] - 0.25) <= 1e-12


def test_casimir_generic_rate_still_constant():
    report = casimir_constancy_check(range(0, 4), 0.31)
    assert report["max_spread"] <= 1e-11
    assert report["max_ordering_difference"] <= 1e-11


def test_casimir_zero_rate_skipped():
    report = casimir_constancy_check(range(0, 4), 0.0)
    assert "skipped" in report


def test_prop1_window_structure():
    counts = {}
    for window in (8, 16, 32, 64):
        report = prop1_solve(window)
        assert report["nullspace_dim"] == 2
        assert report["trivial_residual"] == 0.0
        assert report["complement_residual"] == 0.0
        assert report["boundary_truncated"]
        counts[window] = report["complement_nonzero_count"]
    assert counts[8] < counts[16] < counts[32] < counts[64]


@pytest.mark.parametrize("window", [4, 5, 8, 16, 33, 64])
def test_prop1_basis_is_one_plus_u_and_an_exact_orthogonal_complement(window):
    report = prop1_solve(window)
    t, w = report["basis"]
    assert t == {0: 1 / 2**0.5, 1: 1 / 2**0.5}
    assert abs(sum(v * t.get(e, 0.0) for e, v in w.items())) <= 1e-15
    assert sum(v * v for v in w.values()) == pytest.approx(1.0, abs=1e-15)
    # every interior constraint C_e + C_(e-2) = C_floor(e/2) holds for w up to
    # the rounding of its one scale factor
    scale = max(map(abs, w.values()))
    for e in range(-window + 2, window + 1):
        got = w.get(e, 0.0) + w.get(e - 2, 0.0) - w.get(e // 2, 0.0)
        assert abs(got) <= 4e-16 * scale, e
    assert report["complement_nonzero_count"] == len(w)
    if window & (window - 1) == 0:
        assert len(w) == window + 1


def test_prop1_pattern_reported_not_enforced():
    report = prop1_solve(16)
    # the listed pattern breaks the constraint at exponent 0, and the
    # report carries that as data
    assert report["pattern_constraint_residual"] > 0.5
    assert 0.0 <= report["pattern_nullspace_distance"] <= 1.0


def test_prop1_small_window_rejected():
    with pytest.raises(ValueError):
        prop1_solve(3)


def test_gamma_anchors_and_domain():
    m = GammaMap(1.0)
    assert abs(gamma_eval(m, math.cosh(1.0))) <= 1e-12
    assert abs(gamma_eval(m, math.cosh(2.0)) + 1.0) <= 1e-12
    with pytest.raises(ValueError):
        gamma_eval(m, 1.0)
    with pytest.raises(ValueError):
        gamma_eval(m, 0.3)


def test_gamma_near_one_against_mpmath():
    # G = sign * -log2(y), y = acosh(xi) / b, with xi = 1 + k 2^-52 exact.
    # acosh(xi) is off by at most 2 ulp <= 4u relative (glibc's stated bound;
    # it works from xi - 1, which is exact), the division adds u, so y is off
    # by at most 5u relative.  log2 has relative condition number 1/|ln y|
    # and adds its own <= 4u, so |G - G_exact| / |G| <= (5 / |ln y| + 4) u.
    # The steep slope dG/dxi near 1 only matters when xi itself is rounded.
    u = 2.0**-53
    with mpmath.workprec(200):
        for b_const in (0.5, 1.0, 3.0):
            for sign in (1, -1):
                m = GammaMap(b_const, sign)
                for k in (1, 2, 3, 7, 1000, 2**20, 2**40):
                    xi = 1.0 + k * 2.0**-52
                    y = mpmath.acosh(xi) / b_const
                    want = -sign * mpmath.log(y, 2)
                    got = gamma_eval(m, xi)
                    bound = (5 / abs(mpmath.log(y)) + 4) * u
                    assert abs(got - want) / abs(want) <= bound, (b_const, sign, k)


def test_gamma_map_validation():
    with pytest.raises(ValueError):
        GammaMap(0.0)
    with pytest.raises(ValueError):
        GammaMap(1.0, sign=2)


def test_gamma_ladder_on_log_grid():
    report = gamma_ladder_report(GammaMap(1.0))
    assert report["points"] == 100
    assert report["max_step_error"] <= 1e-12
    assert report["max_roundtrip_error"] <= 1e-12
    assert len(report["rows"]) == 100
    assert report["max_step_error"] == max(row[3] for row in report["rows"])


def test_gamma_ladder_spot_values():
    m = GammaMap(1.0)
    for xi in (1.1, 2.0, 10.0, 100.0):
        assert abs(gamma_eval(m, 2.0 * xi * xi - 1.0) - (gamma_eval(m, xi) - 1.0)) <= 1e-12


def test_gamma_inverse_roundtrip():
    m = GammaMap(0.7, sign=-1)
    for y in (-2.0, 0.0, 1.5):
        assert abs(gamma_eval(m, gamma_inverse(m, y)) - y) <= 1e-12


def test_bridge_ladder_assertions():
    report = suq2_bridge_check(GammaMap(1.0), 1.0, math.log(2.0), range(0, 5))
    assert report["max_gamma_step_error"] <= 1e-12
    assert report["max_phi_ratio_error"] <= 1e-12
    assert report["q"] == math.e
    assert not report["bridge_table_asserted"]


def test_bridge_table_rows():
    report = suq2_bridge_check(GammaMap(1.0), 1.0, math.log(2.0), range(0, 3))
    rows = report["bridge_rows"]
    assert [row["j0"] for row in rows] == [0.0, -1.0, -2.0]
    # q-integer values are tabulated alongside, never asserted against
    assert abs(rows[0]["q_bracket_2j0"]) <= 1e-15
    assert rows[1]["q_bracket_2j0"] == pytest.approx(
        math.sinh(-2.0) / math.sinh(1.0), rel=1e-12
    )
    for row in rows:
        assert row["xi"] == pytest.approx(math.cosh(2.0 ** (-row["j0"])), rel=1e-12)


def test_bridge_validation():
    with pytest.raises(ValueError):
        suq2_bridge_check(GammaMap(1.0), 0.0, math.log(2.0), range(0, 3))
    with pytest.raises(ValueError):
        suq2_bridge_check(GammaMap(1.0), 1.0, 0.0, range(0, 3))
    with pytest.raises(ValueError):
        suq2_bridge_check(GammaMap(1.0), 1.0, 1.0, [0, 2, 4])
    with pytest.raises(ValueError):
        suq2_bridge_check(GammaMap(1.0), 1.0, 1.0, [0])


def test_bridge_values_beyond_the_float_range_raise_naming_the_quantity():
    with pytest.raises(EvaluationOverflowError,
                       match=r"a_n = cosh\(2\^n a_tilde\) is beyond the float range at n = 11"):
        suq2_bridge_check(GammaMap(math.log(2.0)), 1.0, math.log(2.0), [11, 12])
    with pytest.raises(EvaluationOverflowError, match=r"at n = 0, a_tilde = 1e\+300"):
        suq2_bridge_check(GammaMap(1.0), 1.0, 1e300, [0, 1])
    for j0 in (-2000.0, -20.0):
        named = rf"xi = cosh\(b 2\^\(-sign J0\)\) is beyond the float range at J0 = {j0}"
        with pytest.raises(EvaluationOverflowError, match=named):
            suq2_bridge_check(GammaMap(1.0), 1.0, 1.0, [0, 1], j0_values=(0.0, j0))


def test_a_rate_doubling_beyond_the_float_range_raises_naming_n():
    with pytest.raises(EvaluationOverflowError, match=r"2\^n is beyond the float range at n = 2000"):
        suq2_bridge_check(GammaMap(1.0), 1.0, 1.0, [2000, 2001])
    with pytest.raises(EvaluationOverflowError, match="at n = 1024"):
        casimir_constancy_check([0, 1024], math.log(2.0))


def test_chi_drives_casimir_from_generators():
    # the chain solver consumes the ladder commutator symbol directly
    gs = build_generators(AlgebraParams(1.0, 1.0))
    chi = solve_casimir_chi(gs.f.to_laurent()).chi
    want = parse_laurent("-1/4*T^1 - 1/4*T^1/2 - 1/4*T^-1/2")
    assert (chi - want).max_abs_coeff() <= 1e-15

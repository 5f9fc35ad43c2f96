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
    NonUniqueSolutionError,
    NoSolutionInWindowError,
    casimir_constancy_check,
    gamma_eval,
    gamma_inverse,
    gamma_ladder_report,
    prop1_solve,
    solve_casimir_chi,
    solve_refinement,
    suq2_bridge_check,
    uniqueness_check,
)
from waveq.laurent import Dyadic, EvaluationOverflowError, LaurentPoly, parse_laurent
from waveq.qdeform import AlgebraParams, build_generators


HALF = Dyadic(1, 1)


def test_refinement_unit_shift_mask():
    c = parse_laurent("1 + T^-1")
    solve = solve_refinement(c, 2)
    assert solve.b.isclose(parse_laurent("1 - T^-1"), tol=1e-12)
    assert solve.rho == 2.0 / 2.0
    assert solve.residual <= 1e-12
    assert solve.zero_order == 1


def test_refinement_squared_half_shift_mask():
    c = parse_laurent("1/2 + T^-1/2 + 1/2*T^-1")
    solve = solve_refinement(c, 2)
    assert solve.b.isclose(parse_laurent("1 - 2*T^-1/2 + T^-1"), tol=1e-12)
    assert abs(solve.rho - 0.5) <= 1e-15
    assert solve.residual <= 1e-12
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
    assert solve.b.isclose(want, 1e-9)
    assert all(e.is_exact and e.dyadic.log2_den <= 3 for e, _ in solve.b.terms())


def test_refinement_unique_in_growing_windows():
    c = parse_laurent("1 + T^-1")
    want = parse_laurent("1 - T^-1")
    for window in (2, 3, 4, 6):
        solve = solve_refinement(c, window)
        assert solve.b.isclose(want, tol=1e-12)
        assert abs(solve.rho - 1.0) <= 1e-12


def test_refinement_residual_identity_holds():
    c = parse_laurent("1/2 + T^-1/2 + 1/2*T^-1")
    solve = solve_refinement(c, 3)
    lhs = c.substitute_power(HALF) * solve.b.substitute_power(HALF)
    assert lhs.isclose(solve.b * solve.rho, tol=1e-12)


def test_refinement_no_solution_in_window():
    # the matching detail symbol needs exponents down to -4, so a window
    # of 3 cannot hold it
    c = parse_laurent("1 + T^-4")
    with pytest.raises(NoSolutionInWindowError):
        solve_refinement(c, 3)
    solve = solve_refinement(c, 4)
    assert solve.b.isclose(parse_laurent("1 - T^-4"), tol=1e-12)


def test_refinement_nonunique_reports_basis():
    # a nullspace with more than one direction aborts the solve; force the
    # degeneracy with an absurdly loose rank cutoff
    c = parse_laurent("1 + T^-1")
    with pytest.raises(NonUniqueSolutionError) as info:
        solve_refinement(c, 2, nullspace_tol=10.0)
    assert "non-unique" in str(info.value)
    assert len(info.value.basis) > 1


def reference_scan(c, support_bound, tol=funceq.NULLSPACE_TOL):
    """The candidate scan with one full SVD per candidate, the matrix rebuilt
    entry by entry each time: the rule solve_refinement must reproduce."""
    q, mask = funceq._mask_exponents(c, "mask")
    c_at_one = c.eval_phase(0.0)
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
        rank = int((s > tol * s[0]).sum()) if s[0] > 0.0 else 0
        basis = [vh[i].conj() for i in range(rank, vh.shape[0])]
        if not basis:
            continue
        if len(basis) > 1:
            raise NonUniqueSolutionError(
                f"non-unique solution at rho = {rho!r}: nullspace dimension {len(basis)}",
                [funceq._vector_to_poly(v, cols, q) for v in basis],
            )
        b = funceq._vector_to_poly(basis[0], cols, q)
        residual = funceq._refinement_residual(c, b, rho)
        if residual <= funceq.RESIDUAL_TOL:
            return funceq.RefinementSolve(b, rho, residual, m, support_bound)
    raise NoSolutionInWindowError(f"no solution in window |exponent| <= {support_bound}")


def scan_outcome(solver, c, window, tol=funceq.NULLSPACE_TOL):
    """Everything a solve returns or raises, as text that tells every bit apart."""
    try:
        r = solver(c, window, tol)
    except (NoSolutionInWindowError, NonUniqueSolutionError) as e:
        return type(e).__name__, str(e), [repr(p.terms()) for p in getattr(e, "basis", [])]
    return repr(r.b.terms()), repr(r.rho), repr(r.residual), r.zero_order, r.support_bound


def bspline_mask(h: Dyadic, m: int) -> LaurentPoly:
    """2((1 + T^-h)/2)^m."""
    half = LaurentPoly.from_dict({0: 0.5, Dyadic(-h.num, h.log2_den): 0.5})
    c = LaurentPoly.scalar(2.0)
    for _ in range(m):
        c = c * half
    return c


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


def test_refinement_scan_is_the_full_svd_scan_bit_for_bit():
    outcomes = set()
    for c, window in SCAN_CASES:
        got = scan_outcome(solve_refinement, c, window)
        assert got == scan_outcome(reference_scan, c, window), (str(c), window)
        outcomes.add(got[0] if isinstance(got[0], str) and got[0].endswith("Error") else "solved")
    assert outcomes == {"solved", "NoSolutionInWindowError"}


def test_refinement_nonunique_error_is_the_full_svd_scan_bit_for_bit():
    for c, window in [(parse_laurent("1 + T^-1"), 2), (bspline_mask(Dyadic(1, 1), 3), 4)]:
        got = scan_outcome(solve_refinement, c, window, 10.0)
        assert got[0] == "NonUniqueSolutionError" and len(got[2]) > 1
        assert got == scan_outcome(reference_scan, c, window, 10.0)


def test_refinement_takes_one_svd_with_singular_vectors_per_solve():
    svd = np.linalg.svd
    for c, window in [(parse_laurent("1 + T^-1"), 2), (bspline_mask(Dyadic(1, 0), 3), 12),
                      (bspline_mask(Dyadic(1, 2), 3), 12), (bspline_mask(Dyadic(1, 3), 4), 4)]:
        with mock.patch.object(np.linalg, "svd", side_effect=svd) as spy:
            solve = solve_refinement(c, window)
        full = [call for call in spy.call_args_list if call.kwargs.get("compute_uv", True)]
        assert len(full) == 1
        # every rejected candidate was screened out by its singular values alone
        assert spy.call_count == solve.zero_order + 2


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
    assert solve.chi.isclose(want, tol=1e-15)


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


def test_chi_respects_support_bound():
    with pytest.raises(ValueError):
        solve_casimir_chi(parse_laurent("T^1 - T^4"), support_bound=2.0)


def test_casimir_constant_on_ladder():
    report = casimir_constancy_check(range(0, 4), math.log(2.0))
    assert report["constant_ok"]
    assert report["orderings_ok"]
    assert report["max_spread"] <= 1e-11
    assert abs(report["reference"] - 0.25) <= 1e-12


def test_casimir_generic_rate_still_constant():
    report = casimir_constancy_check(range(0, 4), 0.31)
    assert report["constant_ok"]
    assert report["orderings_ok"]


def test_casimir_zero_rate_skipped():
    report = casimir_constancy_check(range(0, 4), 0.0)
    assert "skipped" in report


def test_prop1_window_structure():
    counts = {}
    for window in (8, 16, 32, 64):
        report = prop1_solve(window)
        assert report["nullspace_dim"] == 2
        assert report["trivial_residual"] == 0.0
        assert report["boundary_truncated"]
        counts[window] = report["complement_nonzero_count"]
    assert counts[8] < counts[16] < counts[32] < counts[64]


def test_prop1_pattern_reported_not_enforced():
    report = prop1_solve(16)
    # the listed pattern breaks the constraint at exponent 0, and the
    # report carries that as data
    assert report["pattern_constraint_residual"] > 0.5
    assert 0.0 <= report["pattern_nullspace_distance"] <= 1.0


def test_prop1_small_window_rejected():
    with pytest.raises(ValueError):
        prop1_solve(3)


def test_uniqueness_haar_symbol_passes():
    j = parse_laurent("1/2 + 1/2*T^-1")
    report = uniqueness_check(j, j)
    assert report["x_at_one_ok"]
    assert report["x_at_minus_one_ok"]
    assert report["commutant_ok"]
    assert report["partition_ok"]
    assert report["matches_normalized_j"]


def test_uniqueness_squared_symbol_fails_partition():
    x = parse_laurent("1/4 + 1/2*T^-1/2 + 1/4*T^-1")
    report = uniqueness_check(x, x)
    assert report["x_at_one_ok"]
    assert not report["partition_ok"]
    assert report["partition_max"] > 0.1


def test_uniqueness_reports_violations_without_raising():
    x = parse_laurent("2 + T^-1")
    report = uniqueness_check(x, parse_laurent("1/2 + 1/2*T^-1"))
    assert not report["x_at_one_ok"]
    assert not report["x_at_minus_one_ok"]


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
    assert report["ladder_ok"]
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
    assert report["gamma_ladder_ok"]
    assert report["phi_ladder_ok"]
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
    assert chi.isclose(want, tol=1e-15)

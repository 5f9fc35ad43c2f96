import math
import random

import pytest

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
from waveq.laurent import Dyadic, LaurentPoly, parse_laurent
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


def test_chi_drives_casimir_from_generators():
    # the chain solver consumes the ladder commutator symbol directly
    gs = build_generators(AlgebraParams(1.0, 1.0))
    chi = solve_casimir_chi(gs.f.to_laurent()).chi
    want = parse_laurent("-1/4*T^1 - 1/4*T^1/2 - 1/4*T^-1/2")
    assert chi.isclose(want, tol=1e-15)

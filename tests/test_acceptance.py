"""One test per headline guarantee, driven by the named check registry.

Each test runs exactly one acceptance check and fails with its one-line
message, so a verbose run prints one pass/fail line per guarantee.  The
relation and bound of every claim are pinned in CLAIMS below, so no bound
can be widened without changing this file.
"""

import pytest

import waveq.acceptance as acc
from waveq.laurent import parse_laurent

# (quantity, relation, bound) of every claim, in the order each check makes them
CLAIMS = {
    "exchange-word": [
        row for n in range(1, 9)
        for row in ((f"residual_n{n}", "==", 0.0), (f"word_terms_n{n}", "==", 2**n))
    ],
    "dyadic-closure": [
        ("r1", "==", 0.0),
        ("r2", "==", 0.0),
        ("r3", "==", 0.0),
        ("f", "==", parse_laurent("1/4*T^2 + 1/4*T^-1 - 1/4*T^1/2 - 1/4*T^-1/2")),
    ],
    "fixed-profiles": [
        ("box_residual_j2", "==", 0.0),
        ("box_residual_j6", "==", 0.0),
        ("hat_residual_j3", "==", 0.0),
        ("hat_residual_j6", "==", 0.0),
        ("hat_at_half", "==", 2.0),
    ],
    "limit-words": [
        ("haar-arctan.l1_at_20", "<", 1e-3),
        ("haar-arctan.monotone", "==", True),
        ("haar-tanh.l1_at_20", "<", 1e-6),
        ("haar-tanh.monotone", "==", True),
        ("b2-tri.l1_at_20", "<", 1e-2),
        ("b2-tri.monotone", "==", True),
    ],
    "spectrum-forms": [
        ("max_branch_rel_err", "<=", 1e-12),
        ("max_sinh_rel_err", "<=", 1e-12),
        ("half_step_at_3/4", "==", 1.875),
    ],
    "ladder-moves": [
        ("minus_coeff_at_log2", "==", 0.75),
        ("a_0", "==", 1.25),
        ("a_1", "==", 2.125),
        ("max_mode_error", "<=", 1e-12),
        ("max_ladder_error", "<=", 1e-12),
    ],
    "functional-equations": [
        ("haar.b", "==", parse_laurent("1 - T^-1")),
        ("haar.rho", "==", 1.0),
        ("haar.residual", "==", 0.0),
        ("hat.b", "==", parse_laurent("1 - 2*T^-1/2 + T^-1")),
        ("hat.rho", "==", 0.5),
        ("hat.residual", "==", 0.0),
        ("chi", "==", parse_laurent("-1/4*T^1 - 1/4*T^1/2 - 1/4*T^-1/2")),
        ("constancy.max_spread", "<=", 1e-11),
        ("constancy.max_ordering_difference", "<=", 1e-11),
        ("constancy.reference_error", "<=", 1e-11),
    ],
    "gamma-bridge": [
        ("grid_step_error", "<=", 1e-12),
        ("gamma_step_error", "<=", 1e-12),
        ("phi_ratio_error", "<=", 1e-12),
    ],
    "orthogonality": [
        ("coefficient_sum", "==", 2.0),
        ("overlap_l-1", "==", 0.0),
        ("overlap_l0", "==", 2.0),
        ("overlap_l1", "==", 0.0),
        ("preset_inner_n-2", "==", 0.0),
        ("preset_inner_n-1", "==", 0.0),
        ("preset_inner_n0", "==", 1.0),
        ("preset_inner_n1", "==", 0.0),
        ("preset_inner_n2", "==", 0.0),
        ("built_max_error", "<=", 1e-3),
        ("wavelet_mean_box", "<=", 1e-12),
        ("wavelet_mean_hat", "<=", 1e-12),
    ],
    "fourier-limit": [
        ("w0_error_monotone", "==", True),
        ("w0_error_at_1e-4", "<", 1e-3),
        ("coeff_error_at_1e-4", "<", 1e-3),
        ("frequency_error_at_1e-4", "<", 1e-3),
    ],
    "figure-curves": [
        ("crossings_n6", "==", 32),  # 16 times the 2 crossings at n = 2
        ("composition_error", "<=", 1e-10),
        ("endpoint_l1", "<", 1e-2),
    ],
    "commutant-window": [
        ("trivial_residual_k8", "==", 0.0),
        ("trivial_residual_k16", "==", 0.0),
        ("trivial_residual_k32", "==", 0.0),
        ("trivial_residual_k64", "==", 0.0),
        ("complement_residual_k8", "==", 0.0),
        ("complement_residual_k16", "==", 0.0),
        ("complement_residual_k32", "==", 0.0),
        ("complement_residual_k64", "==", 0.0),
        ("complement_counts_increase", "==", True),
    ],
}


def test_exchange_word_identity_is_exact():
    res = acc.check_exchange_word()
    assert res.passed, res.message


def test_dyadic_closure_is_exact():
    res = acc.check_dyadic_closure()
    assert res.passed, res.message


def test_box_and_hat_are_exact_fixed_points():
    res = acc.check_fixed_profiles()
    assert res.passed, res.message


def test_limit_words_converge_monotonically():
    res = acc.check_limit_words()
    assert res.passed, res.message


def test_spectrum_recursion_matches_closed_forms():
    res = acc.check_spectrum_forms()
    assert res.passed, res.message


def test_ladder_moves_are_exact_at_rate_log2():
    res = acc.check_ladder_moves()
    assert res.passed, res.message


def test_functional_equation_solvers_recover_known_pairs():
    res = acc.check_functional_equations()
    assert res.passed, res.message


def test_gamma_bridge_unit_shift_and_q_ladder():
    res = acc.check_gamma_bridge()
    assert res.passed, res.message


def test_mask_sums_shift_orthogonality_and_zero_mean():
    res = acc.check_orthogonality()
    assert res.passed, res.message


def test_small_s_limit_recovers_fourier_actions():
    res = acc.check_fourier_limit()
    assert res.passed, res.message


def test_figure_curves_and_deformation_endpoint():
    res = acc.check_figure_curves()
    assert res.passed, res.message


def test_commutant_windows_trivial_exact_and_growing():
    res = acc.check_commutant_window()
    assert res.passed, res.message


def test_registry_runs_everything_in_order():
    results = acc.run_all()
    assert [r.name for r in results] == [name for name, _ in acc.CHECKS]
    assert all(r.passed for r in results)
    report = acc.format_report(results)
    assert report.count("PASS") == len(results)
    assert f"{len(results)}/{len(results)} checks passed" in report


def test_every_check_makes_exactly_the_pinned_claims_and_all_hold():
    results = acc.run_all()
    assert [r.name for r in results] == list(CLAIMS)
    for r in results:
        made = [(q, d["relation"], d["bound"]) for q, d in r.details.items()]
        assert made == CLAIMS[r.name], r.name
        assert r.passed, r.message


def test_judge_reports_failures_margins_and_the_tightest_claim():
    claims = [
        ("exact", 0.0, "==", 0.0),
        ("zero", 0.0, "<=", 1e-12),
        ("loose", 1e-6, "<", 1e-3),
        ("tight", 5e-4, "<=", 1e-3),
    ]
    res = acc._judge("demo", claims)
    assert res.passed
    assert res.message == "4 claims hold; tightest tight = 0.0005 <= 0.001, margin 2"
    assert res.details["exact"] == {"value": 0.0, "relation": "==", "bound": 0.0, "margin": None}
    assert res.details["zero"]["margin"] is None
    assert res.details["loose"]["margin"] == pytest.approx(1e3)
    assert acc._judge("demo", claims[:2]).message == "all 2 claims hold exactly"

    res = acc._judge("demo", [*claims, ("edge", 1e-3, "<", 1e-3), ("bit", 2.0000000000000004, "==", 2.0)])
    assert not res.passed
    assert res.message == "failed: edge = 0.001, want < 0.001; bit = 2.0000000000000004, want == 2.0"
    assert res.details["edge"]["margin"] == 1.0

"""Named acceptance checks for the package's headline guarantees.

Each check exercises one capability end to end and states what it measured
as a list of claims ``(quantity, value, relation, bound)``, where the
relation is ``==``, ``<`` or ``<=``.  Every bound the suite applies is
written once, in this module.  One function, ``_judge``, turns a claim
list into a CheckResult:

- ``passed`` is true when every claim holds;
- ``message`` names the failing claims on a fail, and on a pass the claim
  with the smallest margin (or says that every claim holds exactly);
- ``details`` maps each quantity to ``{value, relation, bound, margin}``.
  The margin is ``bound / value`` for a ``<`` or ``<=`` claim with a
  nonzero value, and None for an ``==`` claim or a value of 0.

``run_all`` evaluates every check in the order ``CHECKS`` lists them.  The
checks are pure (no files, no global state), so callers may also run them
one by one.  The ``check`` command-line subcommand and the acceptance test
suite both consume this module, so the claims made here are the single
source of truth for what the package promises.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

from .funceq import (
    GammaMap,
    casimir_constancy_check,
    gamma_ladder_report,
    prop1_solve,
    solve_casimir_chi,
    solve_refinement,
    suq2_bridge_check,
)
from .gridfn import apply_op_grid
from .laurent import parse_laurent
from .opalgebra import OpExpr
from .qdeform import DYADIC_F, AlgebraParams, _dyadic_generators, check_closure, fourier_limit_report
from .scaling import (
    algebraic_form_check,
    b2_system,
    box_grid,
    cascade,
    check_admissibility,
    deformed_scaling_report,
    haar_system,
    hat_grid,
    limit_build,
    limit_build_report,
    wavelet_from_scaling,
)
from .spectra import (
    a2half_step,
    fig1_report,
    haar_closed_form,
    iterate_spectrum,
    ladder_check,
)

__all__ = ["CheckResult", "CHECKS", "run_all", "format_report"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named acceptance check."""

    name: str
    passed: bool
    message: str
    details: dict = field(default_factory=dict)


_HOLDS = {"==": operator.eq, "<": operator.lt, "<=": operator.le}


def _judge(name: str, claims: list[tuple]) -> CheckResult:
    """Decide pass/fail, the message and the details of one claim list."""
    details, failed = {}, []
    for quantity, value, relation, bound in claims:
        margin = None if relation == "==" or value == 0 else bound / value
        details[quantity] = {"value": value, "relation": relation, "bound": bound,
                             "margin": margin}
        if not _HOLDS[relation](value, bound):
            failed.append(f"{quantity} = {value}, want {relation} {bound}")
    if failed:
        return CheckResult(name, False, "failed: " + "; ".join(failed), details)
    tight = min((q for q, d in details.items() if d["margin"] is not None),
                key=lambda q: details[q]["margin"], default=None)
    if tight is None:
        return CheckResult(name, True, f"all {len(details)} claims hold exactly", details)
    d = details[tight]
    return CheckResult(
        name,
        True,
        f"{len(details)} claims hold; tightest {tight} = {d['value']:.3g} "
        f"{d['relation']} {d['bound']:.3g}, margin {d['margin']:.3g}",
        details,
    )


_REGISTERED: list[tuple[str, Callable[[], CheckResult]]] = []


def _check(name: str):
    """Register a function returning claims as the named check.

    The decorated name returns the judged CheckResult; CHECKS keeps the
    order in which the checks are defined below.
    """

    def register(claims: Callable[[], list[tuple]]) -> Callable[[], CheckResult]:
        @functools.wraps(claims)
        def run() -> CheckResult:
            return _judge(name, claims())

        _REGISTERED.append((name, run))
        return run

    return register


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


@_check("exchange-word")
def check_exchange_word():
    """(1 - T^{-1}) D^n equals (1 - T^{-2^-n}) (2 W-)^n with zero residual.

    Exact coefficient identity for n = 1..8, and the expanded word has
    exactly 2^n translation terms.
    """
    claims = []
    for n in range(1, 9):
        rep = algebraic_form_check(n)
        claims += [(f"residual_n{n}", rep["residual"], "==", 0.0),
                   (f"word_terms_n{n}", rep["word_terms"], "==", 2**n)]
    return claims


@_check("dyadic-closure")
def check_dyadic_closure():
    """All three commutators of the (1, 1) generator triple close exactly.

    The raising/lowering commutator must equal
    (T^2 + T^{-1} - T^{1/2} - T^{-1/2}) / 4 coefficient for coefficient.
    """
    rep = check_closure(AlgebraParams(1.0, 1.0))
    return [
        *((r, rep[r], "==", 0.0) for r in ("r1", "r2", "r3")),
        ("f", _dyadic_generators().f.to_laurent(), "==", parse_laurent(DYADIC_F)),
    ]


@_check("fixed-profiles")
def check_fixed_profiles():
    """The box and the peak-2 hat are exact fixed points of their two-scale maps.

    Box: residual exactly 0 at resolutions 2 and 6.  Hat: residual exactly
    0 at resolutions 3 and 6, and the profile's value at 1/2 is exactly 2.
    """
    return [
        *((f"box_residual_j{j}", cascade(haar_system(), box_grid(j), iters=1).residual,
           "==", 0.0) for j in (2, 6)),
        *((f"hat_residual_j{j}", cascade(b2_system(), hat_grid(j), iters=1).residual,
           "==", 0.0) for j in (3, 6)),
        ("hat_at_half", hat_grid(6).value_at(0.5), "==", 2.0),
    ]


@_check("limit-words")
def check_limit_words():
    """Difference words on dilated seeds converge to the exact profiles.

    At word order n = 20 the L1 distance is below 1e-3 (arctan seed) and
    1e-6 (tanh seed) for the box, and below 1e-2 (kink seed) for the hat;
    each error sequence decreases strictly over n in {8, 12, 16, 20}.
    The tanh run uses a fine grid because on coarse grids that seed
    saturates exactly and successive errors tie at zero.
    """
    claims = []
    for preset, delta, bound, resolution in (
        ("haar", "arctan", 1e-3, 10),
        ("haar", "tanh", 1e-6, 18),
        ("b2", "tri", 1e-2, 10),
    ):
        rep = limit_build_report(preset, delta, (8, 12, 16, 20), resolution=resolution)
        claims += [(f"{preset}-{delta}.l1_at_20", rep["errors"][20]["l1"], "<", bound),
                   (f"{preset}-{delta}.monotone", rep["monotone_l1"], "==", True)]
    return claims


@_check("spectrum-forms")
def check_spectrum_forms():
    """Iterating a -> 2a^2 - 1 matches the closed forms on both branches.

    Relative agreement within 1e-12 for n <= 6 starting inside and outside
    [-1, 1]; the half-step map agrees with hyperbolic-sine doubling on
    t in [0, 5]; and 3/4 maps to exactly 15/8.
    """
    branch = max(
        _rel_err(a_n, haar_closed_form(a0, n))
        for a0 in (0.3, 0.9, 1.2, math.cosh(1.0))
        for n, a_n in iterate_spectrum(a0, n=6).values
    )
    doubling = max(
        _rel_err(a2half_step(math.sinh(t)), math.sinh(2.0 * t))
        for t in (0.25 * i for i in range(21))
    )
    return [
        ("max_branch_rel_err", branch, "<=", 1e-12),
        ("max_sinh_rel_err", doubling, "<=", 1e-12),
        ("half_step_at_3/4", a2half_step(0.75), "==", 1.875),
    ]


@_check("ladder-moves")
def check_ladder_moves():
    """Ladder coefficients and eigenvalue moves on the two mode families.

    At rate log 2 the lowering coefficient is exactly 3/4 and the
    eigenvalue moves 5/4 -> 17/8 exactly; oscillating modes of order
    k in {2, 3, 4, 8} match cos(pi/k) and (1 + e^{+-i pi/k})/2 within
    1e-12.
    """
    rep = ladder_check(math.log(2.0), range(0, 4), mode_orders=(2, 3, 4, 8))
    row0, row1 = rep["ladder_rows"][:2]
    return [
        ("minus_coeff_at_log2", row0["minus_coeff"], "==", 0.75),
        ("a_0", row0["a_n"], "==", 1.25),
        ("a_1", row1["a_n"], "==", 2.125),
        ("max_mode_error", rep["max_mode_error"], "<=", 1e-12),
        ("max_ladder_error", rep["max_ladder_error"], "<=", 1e-12),
    ]


@_check("functional-equations")
def check_functional_equations():
    """Refinement, telescoping, and conserved-combination solvers.

    The refinement solver returns exactly (1 - T^{-1}, rho = 1) for the box
    mask and ((1 - T^{-1/2})^2, rho = 1/2) for the hat mask, each with
    residual exactly 0; the telescoping solver reproduces the ladder
    potential exactly; the conserved combination is flat at 1/4 across n in
    {0..3} within 1e-11.
    """
    claims = []
    for name, mask, b, rho in (
        ("haar", "1 + T^-1", "1 - T^-1", 1.0),
        ("hat", "1/2 + T^-1/2 + 1/2*T^-1", "1 - 2*T^-1/2 + T^-1", 0.5),
    ):
        sol = solve_refinement(parse_laurent(mask), 4)
        claims += [
            (f"{name}.b", sol.b, "==", parse_laurent(b)),
            (f"{name}.rho", sol.rho, "==", rho),
            (f"{name}.residual", sol.residual, "==", 0.0),
        ]
    chi = solve_casimir_chi(parse_laurent(DYADIC_F)).chi
    flat = casimir_constancy_check(range(0, 4), math.log(2.0))
    return claims + [
        ("chi", chi, "==", parse_laurent("-1/4*T^1 - 1/4*T^1/2 - 1/4*T^-1/2")),
        ("constancy.max_spread", flat["max_spread"], "<=", 1e-11),
        ("constancy.max_ordering_difference", flat["max_ordering_difference"], "<=", 1e-11),
        ("constancy.reference_error", abs(flat["reference"] - 0.25), "<=", 1e-11),
    ]


@_check("gamma-bridge")
def check_gamma_bridge():
    """The relabeling map turns the coarsening step into a unit shift.

    Gamma(2 xi^2 - 1) = Gamma(xi) - 1 within 1e-12 on 100 log-spaced
    points; along the eigenvalue ladder Gamma drops by exactly one unit
    and phi = q^{-Gamma} gains a factor q per step, both within 1e-12.
    """
    rep = gamma_ladder_report(GammaMap(b_const=1.0, sign=1), points=100, lo=1.001, hi=1.0e3)
    a_tilde = math.log(2.0)
    bridge = suq2_bridge_check(
        GammaMap(b_const=a_tilde, sign=1), s=1.0, a_tilde=a_tilde, n_range=range(0, 4)
    )
    return [
        ("grid_step_error", rep["max_step_error"], "<=", 1e-12),
        ("gamma_step_error", bridge["max_gamma_step_error"], "<=", 1e-12),
        ("phi_ratio_error", bridge["max_phi_ratio_error"], "<=", 1e-12),
    ]


def _shift_inner(phi, n: int) -> complex:
    shifted = apply_op_grid(
        OpExpr.translation(n), phi, out_resolution=phi.resolution, out_window=phi.window
    )
    return phi.inner(shifted)


@_check("orthogonality")
def check_orthogonality():
    """Mask sums, shift orthogonality of the box, and zero-mean wavelets.

    The box mask satisfies the coefficient sum 2 and doubled-normalization
    overlap conditions exactly; <phi, T^n phi> = delta_{n0} exactly for the
    preset box and within 1e-3 for the order-20 limit build; both preset
    wavelets integrate to zero within 1e-12.  The limit build carries
    midpoint values at the two jumps, which perturbs its self inner
    product by 2^-(resolution+1), so the grid must be at least that fine.
    """
    adm = check_admissibility(haar_system())
    window = (-3, 4)
    preset = box_grid(10, window)
    built = limit_build("haar", "tanh", 20, 10, window)
    built_err = max(abs(_shift_inner(built, n) - (1.0 if n == 0 else 0.0)) for n in range(-2, 3))
    psi_box = wavelet_from_scaling(haar_system(), box_grid(6), form="canonical")
    psi_hat = wavelet_from_scaling(b2_system(), hat_grid(6), form="canonical")
    return [
        ("coefficient_sum", adm["coefficient_sum"], "==", 2.0),
        *((f"overlap_l{l}", v, "==", 2.0 if l == "0" else 0.0)
          for l, v in adm["overlaps"].items()),
        *((f"preset_inner_n{n}", _shift_inner(preset, n), "==", 1.0 if n == 0 else 0.0)
          for n in range(-2, 3)),
        ("built_max_error", built_err, "<=", 1e-3),
        ("wavelet_mean_box", abs(psi_box.integral()), "<=", 1e-12),
        ("wavelet_mean_hat", abs(psi_hat.integral()), "<=", 1e-12),
    ]


@_check("fourier-limit")
def check_fourier_limit():
    """As s -> 0 the averaging operator differentiates and the ladder shifts.

    On e^{inx} the averaging operator's eigenvalue error shrinks
    monotonically over s in {1e-2, 1e-3, 1e-4} and is below 1e-3 at the
    smallest s; there the ladder coefficients are within 1e-3 of one and
    the output frequencies within 1e-3 of n +- 1.
    """
    rep = fourier_limit_report()
    last = [r for r in rep["rows"] if r["s"] == 1e-4]

    def worst(*keys):
        return max(r[k] for r in last for k in keys)

    return [
        ("w0_error_monotone", rep["w0_error_monotone"], "==", True),
        ("w0_error_at_1e-4", worst("w0_eigenvalue_error"), "<", 1e-3),
        ("coeff_error_at_1e-4", worst("wplus_coeff_error", "wminus_coeff_error"), "<", 1e-3),
        ("frequency_error_at_1e-4",
         worst("wplus_frequency_error", "wminus_frequency_error"), "<", 1e-3),
    ]


@_check("figure-curves")
def check_figure_curves():
    """Spectral curves obey composition, oscillation doubling holds, and
    the deformation endpoint reproduces the box.

    On a 512-point grid the curves for n = 2, 4, 6 compose (the order-6
    curve is the order-4 curve of the order-2 values) within 1e-10, the
    zero-crossing count grows by 2^4 from n = 2 to n = 6, and the
    deformation's s = 1 endpoint is within L1 distance 1e-2 of the box.
    """
    crossings = fig1_report([2, 4, 6], grid_size=512)["zero_crossings"]
    comp_err = 0.0
    for i in range(512):
        a0 = i / 511.0
        via_2 = haar_closed_form(a0, 2)
        comp_err = max(
            comp_err,
            abs(haar_closed_form(via_2, 4) - haar_closed_form(a0, 6)),
            abs(haar_closed_form(via_2, 2) - haar_closed_form(a0, 4)),
        )
    fam = deformed_scaling_report((1.0,), n=16, resolution=8)
    return [
        ("crossings_n6", crossings[6], "==", 16 * crossings[2]),
        ("composition_error", comp_err, "<=", 1e-10),
        ("endpoint_l1", fam["rows"][0]["l1_to_box"], "<", 1e-2),
    ]


@_check("commutant-window")
def check_commutant_window():
    """The trivial commutant solution is exact and window solutions grow.

    At window sizes 8, 16, 32, 64 the solution 1 + u and its orthogonal
    complement both have exactly zero interior residual, and the
    nonzero-coefficient count of the complement strictly increases with the
    window.
    """
    reps = {k: prop1_solve(k) for k in (8, 16, 32, 64)}
    counts = [rep["complement_nonzero_count"] for rep in reps.values()]
    return [
        *((f"trivial_residual_k{k}", rep["trivial_residual"], "==", 0.0)
          for k, rep in reps.items()),
        *((f"complement_residual_k{k}", rep["complement_residual"], "==", 0.0)
          for k, rep in reps.items()),
        ("complement_counts_increase", all(a < b for a, b in zip(counts, counts[1:])),
         "==", True),
    ]


CHECKS: tuple[tuple[str, Callable[[], CheckResult]], ...] = tuple(_REGISTERED)


def run_all() -> list[CheckResult]:
    """Evaluate every acceptance check in the registry's fixed order."""
    return [fn() for _, fn in CHECKS]


def format_report(results: list[CheckResult]) -> str:
    """One line per check: PASS/FAIL, the stable name, and the message."""
    width = max(len(r.name) for r in results)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name.ljust(width)}  {r.message}"
        for r in results
    ]
    total = sum(r.passed for r in results)
    lines.append(f"{total}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"

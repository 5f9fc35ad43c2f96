"""Eigenvalue recursions driven by the coarsening step a -> 2a^2 - 1.

The midpoint-average operator built from unit shifts has plane waves as
eigenfunctions.  Halving the wave's rate squares the eigenvalue relation,
so the eigenvalue sequence along a dyadic family of rates obeys the
quadratic recursion above.  This module iterates that recursion, provides
its closed forms (cosine branch inside [-1, 1], hyperbolic branch outside),
the half-step that doubles a hyperbolic-sine argument, the ladder
transitions realized by the raising and lowering operators, and the grid
data behind the oscillation-count chart.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .gridfn import ExpSum, apply_op_expsum
from .laurent import EvaluationOverflowError, _float_range, _pow2
from .qdeform import _dyadic_generators

CLOSED_FORM_TAGS = ("cos-branch", "cosh-branch", "none")

# cosh overflows just above 710; leave margin so the last stored value is
# still comfortably finite.
COSH_ARG_LIMIT = 700.0


def doubling_step(a: float) -> float:
    """One coarsening step of the eigenvalue recursion."""
    return 2.0 * a * a - 1.0


@dataclass(frozen=True)
class SpectrumTrace:
    """Eigenvalue sequence (n, a_n) produced by iterating a step map.

    ``values`` holds consecutive pairs starting at (0, a0).  When a step
    leaves the representable range the trace simply stops at the last
    finite value and ``overflow_at`` records the index that could not be
    computed; a truncated trace is data, not an error.
    """

    a0: float
    values: tuple[tuple[int, float], ...]
    closed_form_tag: str = "none"
    overflow_at: int | None = None

    def __post_init__(self):
        if self.closed_form_tag not in CLOSED_FORM_TAGS:
            raise ValueError(f"unknown closed_form_tag {self.closed_form_tag!r}")

    def value_at(self, n: int) -> float:
        for k, a in self.values:
            if k == n:
                return a
        raise KeyError(f"no entry at n = {n} (trace has {len(self.values)} values)")


def iterate_spectrum(
    a0: float,
    step: Callable[[float], float] = doubling_step,
    n: int = 16,
) -> SpectrumTrace:
    """Iterate ``step`` n times from a0, recording (index, value) pairs.

    The default step is the coarsening recursion.  The trace's closed-form
    tag follows from step and a0: the cosine branch for the default step and
    |a0| <= 1, the hyperbolic branch otherwise, "none" for any other map.
    A non-finite a0 raises ValueError.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if not math.isfinite(a0):
        raise ValueError(f"a0 must be finite, got {a0!r}")
    closed_form_tag = "none"
    if step is doubling_step:
        closed_form_tag = "cos-branch" if abs(a0) <= 1.0 else "cosh-branch"
    values = [(0, float(a0))]
    overflow_at = None
    current = float(a0)
    for i in range(1, n + 1):
        try:
            nxt = float(step(current))
        except (OverflowError, EvaluationOverflowError):
            overflow_at = i
            break
        if not math.isfinite(nxt):
            overflow_at = i
            break
        values.append((i, nxt))
        current = nxt
    return SpectrumTrace(float(a0), tuple(values), closed_form_tag, overflow_at)


def haar_closed_form(a0: float, n: int) -> float:
    """Value of the n-th iterate of a -> 2a^2 - 1 in closed form.

    |a0| <= 1 composes with the cosine; a0 > 1 with the hyperbolic cosine.
    a0 < -1 is handled by taking one explicit step (which lands above 1)
    and then using the hyperbolic branch.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return float(a0)
    if abs(a0) <= 1.0:
        return math.cos(_pow2(n) * math.acos(a0))
    if a0 < -1.0:
        return haar_closed_form(doubling_step(a0), n - 1)
    arg = _pow2(n) * math.acosh(a0)
    if arg > COSH_ARG_LIMIT:
        raise EvaluationOverflowError(
            f"spectrum overflow: cosh argument {arg!r} at n = {n}"
        )
    return math.cosh(arg)


def a2half_step(a: float) -> float:
    """Half-step doubling a hyperbolic-sine argument: sinh t -> sinh 2t.

    Written as a*(u + 1/u) with u = a + sqrt(a^2 + 1) so that rational
    inputs with exactly representable square roots stay exact; 3/4 maps
    to 15/8 with no rounding at all.  The map is odd, and u cancels for
    a < 0, so it is evaluated at |a| and given the sign of a.
    """
    t = abs(a)
    u = t + math.sqrt(t * t + 1.0)
    return math.copysign(t * (u + 1.0 / u), a)


# -- ladder transitions --------------------------------------------------------


def _single_term(es: ExpSum, what: str) -> tuple[complex, complex]:
    terms = es.terms()
    if len(terms) != 1:
        raise AssertionError(f"{what}: expected a single-rate output, got {terms!r}")
    return terms[0]


def ladder_check(
    a_tilde: float,
    n_range: Iterable[int],
    mode_orders: Sequence[int] = (1, 2, 3, 4, 8),
) -> dict:
    """Apply the raising/lowering pair to two families of exponentials.

    Real-rate family e^(2^n * a_tilde * x): the lowering operator doubles
    the rate with coefficient (1 + e^(-2^n a_tilde))/2, the raising
    operator halves it with coefficient (1 + e^(2^n a_tilde))/2, and the
    averaging operator's eigenvalue moves cosh(2^n a_tilde) ->
    cosh(2^(n+1) a_tilde).

    Oscillating family e^(i pi x / k): eigenvalue cos(pi/k), ladder
    coefficients (1 + e^(+-i pi/k))/2, and the mode order k doubles or
    halves.  k = 1 gives a vanishing coefficient; the constant function
    (order "0") is fixed by both ladder operators with coefficient one.
    Those two boundary rows are recorded for inspection, not judged here.
    """
    if a_tilde == 0.0:
        raise ValueError("a_tilde must be nonzero; the rate family degenerates")
    gs = _dyadic_generators()

    ladder_rows = []
    for n in n_range:
        lam = _pow2(n) * a_tilde
        mode = ExpSum.exponential(lam)
        c0, r0 = _single_term(apply_op_expsum(gs.w0, mode), "w0")
        cm, rm = _single_term(apply_op_expsum(gs.w_minus, mode), "w_minus")
        cp, rp = _single_term(apply_op_expsum(gs.w_plus, mode), "w_plus")
        # cosh(2 lam) is the largest quantity in the row
        with _float_range("cosh(2^(n+1) a_tilde)", f"n = {n}, a_tilde = {a_tilde!r}"):
            ladder_rows.append(
                {
                    "n": n,
                    "rate": lam,
                    "a_n": c0.real,
                    "a_n_error": abs(c0 - math.cosh(lam)),
                    "w0_rate_error": abs(r0 - lam),
                    "minus_coeff": cm,
                    "minus_coeff_error": abs(cm - 0.5 * (1.0 + math.exp(-lam))),
                    "minus_rate_error": abs(rm - 2.0 * lam),
                    "minus_target_a": math.cosh(2.0 * lam),
                    "plus_coeff": cp,
                    "plus_coeff_error": abs(cp - 0.5 * (1.0 + math.exp(lam))),
                    "plus_rate_error": abs(rp - 0.5 * lam),
                    "plus_target_a": math.cosh(0.5 * lam),
                }
            )

    mode_rows = []
    for k in mode_orders:
        rate = 1j * math.pi / k
        mode = ExpSum.exponential(rate)
        c0 = apply_op_expsum(gs.w0, mode).coefficient_of(rate)
        # the ladder coefficient at k = 1 cancels to rounding noise and may
        # be pruned outright, so read off the expected output rate instead
        # of insisting on a single surviving term
        out_minus = apply_op_expsum(gs.w_minus, mode)
        out_plus = apply_op_expsum(gs.w_plus, mode)
        cm = out_minus.coefficient_of(2.0 * rate)
        cp = out_plus.coefficient_of(0.5 * rate)
        stray = max(
            (abs(r - 2.0 * rate) for _, r in out_minus.terms()), default=0.0
        ) + max((abs(r - 0.5 * rate) for _, r in out_plus.terms()), default=0.0)
        mode_rows.append(
            {
                "k": k,
                "eigenvalue_error": abs(c0 - math.cos(math.pi / k)),
                "minus_coeff": cm,
                "minus_coeff_error": abs(cm - 0.5 * (1.0 + cmath.exp(-rate))),
                "plus_coeff": cp,
                "plus_coeff_error": abs(cp - 0.5 * (1.0 + cmath.exp(rate))),
                "stray_rate_error": stray,
            }
        )

    const = ExpSum.constant(1.0)
    const_minus, _ = _single_term(apply_op_expsum(gs.w_minus, const), "w_minus")
    const_plus, _ = _single_term(apply_op_expsum(gs.w_plus, const), "w_plus")

    return {
        "a_tilde": a_tilde,
        "ladder_rows": ladder_rows,
        "mode_rows": mode_rows,
        "constant_fixed_minus": const_minus,
        "constant_fixed_plus": const_plus,
        "max_ladder_error": max(
            max(
                r["a_n_error"],
                r["minus_coeff_error"],
                r["plus_coeff_error"],
                r["minus_rate_error"],
                r["plus_rate_error"],
            )
            for r in ladder_rows
        ),
        "max_mode_error": max(
            max(
                r["eigenvalue_error"],
                r["minus_coeff_error"],
                r["plus_coeff_error"],
                r["stray_rate_error"],
            )
            for r in mode_rows
        ),
    }


# -- oscillation-count chart ---------------------------------------------------


def fig1_data(
    n_list: Iterable[int], a0_grid: Sequence[float]
) -> list[tuple[float, int, float]]:
    """Rows (a0, n, a_n) of the n-th iterate over a grid of a0 in [0, 1]."""
    grid = [float(a) for a in a0_grid]
    for a in grid:
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"a0 grid must lie in [0, 1], got {a!r}")
    rows = []
    for n in n_list:
        for a in grid:
            rows.append((a, n, haar_closed_form(a, n)))
    return rows


def zero_crossing_count(values: Sequence[float]) -> int:
    """Count sign changes between consecutive nonzero samples of a curve.

    Exact zeros are skipped, so a zero at a sign change counts once and a
    zero the curve only touches counts not at all.
    """
    positive = [v > 0.0 for v in values if v != 0.0]
    return sum(a != b for a, b in zip(positive, positive[1:]))


def fig1_report(n_list: Iterable[int], grid_size: int = 512) -> dict:
    """Chart data plus per-curve oscillation counts on a uniform grid."""
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    ns = list(n_list)
    grid = [i / (grid_size - 1) for i in range(grid_size)]
    rows = fig1_data(ns, grid)
    crossings = {}
    for n in ns:
        curve = [an for a0, m, an in rows if m == n]
        crossings[n] = zero_crossing_count(curve)
    return {
        "n_list": ns,
        "grid_size": grid_size,
        "rows": rows,
        "zero_crossings": crossings,
    }

"""Deformed translation/dilation generators and their closure checks.

The two-symbol family is built from any Laurent symbols j0 and j: the
averaging symbol j0(T), the ladder operators j+ = P^nu D^-s j(T) and
j- = P^nu' D^s j(T^-1), and the two translation symbols that close their
commutators, found by substitution (`_family`).  The (s, alpha) generator
triple is the instance j0 = W0(s, alpha), j = (1 + T^s)/2: `build_generators`
returns it as W0, W+/W- and the closing symbols g and f, and
`verify_general_closure` checks any other instance the same way.

Exactness policy: the flagship configuration (s, alpha) = (1, 1) must
produce *exactly zero* residuals in IEEE arithmetic.  Three things make
that work: quarter-turn trig is read from integer tables instead of
calling cos(pi/2), the W0 denominator groups sinh(s)/sinh(1) so the ratio
is exactly 1.0 at s = 1, and every phase angle proportional to (s - 1)
is exactly 0.0 there, in which case the e^{i*theta} factors are skipped
rather than computed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .laurent import EvaluationOverflowError, LaurentPoly, _float_range
from .opalgebra import OpExpr, commutator

SINH_1 = math.sinh(1.0)


def sin_half_turn(alpha: float) -> float:
    """sin(alpha*pi/2), exact at integer alpha."""
    if float(alpha).is_integer():
        return (0.0, 1.0, 0.0, -1.0)[int(alpha) % 4]
    return math.sin(alpha * math.pi / 2.0)


def cos_half_turn(alpha: float) -> float:
    """cos(alpha*pi/2), exact at integer alpha."""
    if float(alpha).is_integer():
        return (1.0, 0.0, -1.0, 0.0)[int(alpha) % 4]
    return math.cos(alpha * math.pi / 2.0)


def cos_full_turn_half(s: float) -> float:
    """cos(pi*s), exact at integer s."""
    if float(s).is_integer():
        return -1.0 if int(s) % 2 else 1.0
    return math.cos(math.pi * s)


@dataclass(frozen=True)
class AlgebraParams:
    """Deformation parameter s and translation-scale parameter alpha."""

    s: float
    alpha: float

    @property
    def q(self) -> float:
        return math.exp(self.s)


@dataclass(frozen=True)
class GeneratorSet:
    """One instance of the two-symbol family (`_family`): j0, j+/-, g and f."""

    w0: OpExpr
    w_plus: OpExpr
    w_minus: OpExpr
    g: OpExpr
    f: OpExpr


# -- q-numbers -----------------------------------------------------------------


def q_number(x: float, s: float) -> float:
    """sinh(s x)/sinh(s); the s -> 0 branch returns x itself."""
    if s == 0.0:
        return float(x)
    if abs(s * x) > 700.0 or abs(s) > 700.0:
        raise EvaluationOverflowError(f"overflow: s*x = {s * x!r}")
    return math.sinh(s * x) / math.sinh(s)


# -- the generator family ------------------------------------------------------


def _w0_coefficients(s: float, alpha: float) -> tuple[complex, complex]:
    """Coefficients of T^{s alpha} and T^{-s alpha} in W0.

    The denominator is grouped as 2*(sin(a pi/2) sinh(s)/sinh(1)
    - 2i cos(a pi/2) sinh(s)) so that at s = alpha = 1 the ratio
    sinh(s)/sinh(1) is the same-argument division, exactly 1.0.
    """
    with _float_range("sinh(s)", f"s = {s!r}"):
        sinh_s = math.sinh(s)
    if sinh_s == 0.0:
        raise ValueError("W0 is undefined at s = 0 (sinh s divides)")
    denom = 2.0 * complex(
        sin_half_turn(alpha) * (sinh_s / SINH_1), -2.0 * cos_half_turn(alpha) * sinh_s
    )
    return 1.0 / denom, -cos_full_turn_half(s) / denom


def phase_index_plus(s: float) -> float:
    """mu of the single P factor in W+ after merging the split phases."""
    with _float_range("2^-s", f"s = {s!r}"):
        return -(s - 1.0) * (1.0 + 2.0**-s) / 2.0


def phase_index_minus(s: float) -> float:
    """mu of the single P factor in W-."""
    with _float_range("2^s", f"s = {s!r}"):
        return (s - 1.0) * (1.0 + 2.0**s) / 2.0


def _halving_symbol(s: float) -> LaurentPoly:
    """j = (1 + T^s)/2, the ladder symbol of the (s, alpha) triple."""
    return LaurentPoly(((0, 0.5), (s, 0.5)))


def _ladders(j: LaurentPoly, s: float) -> tuple[OpExpr, OpExpr]:
    """j+ = P^nu D^-s j(T) and j- = P^nu' D^s j(T^-1), nu and nu' the
    phase indices of W+ and W-."""
    return (
        OpExpr.term(1.0, mu=phase_index_plus(s), beta=-s) * OpExpr.from_laurent(j),
        OpExpr.term(1.0, mu=phase_index_minus(s), beta=s)
        * OpExpr.from_laurent(j.substitute_power(-1)),
    )


def _family(j0: LaurentPoly, j: LaurentPoly, s: float) -> GeneratorSet:
    """The two-symbol family at (j0, j, s): j0, its ladders j+/-, and the
    closing symbols found by substitution,

        g = j0(T) - j0(e^{i nu'} T^{2^s}),
        f = j(e^{i nu'} T^{2^s}) j(T^-1) - j(e^{-i nu} T^{-2^-s}) j(T).

    Every phase angle is a multiple of nu or nu', both exactly zero at
    s = 1, where substitution then keeps the coefficients bit-identical.
    """
    j_plus, j_minus = _ladders(j, s)
    nu, nu_prime = phase_index_plus(s), phase_index_minus(s)
    g = j0 - j0.substitute_scaled(2.0**s, nu_prime)
    f = j.substitute_scaled(2.0**s, nu_prime) * j.substitute_power(-1) - (
        j.substitute_scaled(-(2.0**-s), -nu) * j
    )
    return GeneratorSet(OpExpr.from_laurent(j0), j_plus, j_minus,
                        OpExpr.from_laurent(g), OpExpr.from_laurent(f))


def _residuals(gs: GeneratorSet) -> dict:
    """r1 = [W0, W+] - g W+;  r2 = [W0, W-] + W- g;  r3 = [W+, W-] - f,
    each as the largest coefficient of its normal form."""
    return {
        "r1": (commutator(gs.w0, gs.w_plus) - gs.g * gs.w_plus).max_abs_coeff(),
        "r2": (commutator(gs.w0, gs.w_minus) + gs.w_minus * gs.g).max_abs_coeff(),
        "r3": (commutator(gs.w_plus, gs.w_minus) - gs.f).max_abs_coeff(),
    }


def w_plus(s: float) -> OpExpr:
    """Raising half: 1/2 P D^-s (1 + T^s), the j+ ladder of the triple."""
    return _ladders(_halving_symbol(s), s)[0]


def w_minus(s: float) -> OpExpr:
    """Lowering half: 1/2 P D^s (1 + T^-s), the j- ladder of the triple; at
    s = 1 this is the scaling-equation operator (its fixed functions satisfy
    the Haar two-scale relation)."""
    return _ladders(_halving_symbol(s), s)[1]


def w_zero(s: float, alpha: float) -> OpExpr:
    c_plus, c_minus = _w0_coefficients(s, alpha)
    sa = s * alpha
    return OpExpr.term(c_plus, alpha=sa) + OpExpr.term(c_minus, alpha=-sa)


# f of the (1, 1) triple, written out (the built f carries -0.0 imaginary parts)
DYADIC_F = "1/4*T^2 + 1/4*T^-1 - 1/4*T^1/2 - 1/4*T^-1/2"


def build_generators(p: AlgebraParams) -> GeneratorSet:
    """W0, W+/-, and the two closure symbols g and f: the two-symbol family
    at j0 = W0(s, alpha) and j = (1 + T^s)/2.

    g and f are pure translation symbols (beta = 0) with complex
    coefficients; their phase angles are multiples of (s - 1) and vanish
    identically at s = 1.
    """
    return _family(w_zero(p.s, p.alpha).to_laurent(), _halving_symbol(p.s), p.s)


@functools.cache
def _w0_alpha0() -> complex:
    """The one coefficient of W0(1, 0), built once per process."""
    (t,) = w_zero(1.0, 0.0).terms()
    return t.coeff


def w0_alpha0_report() -> dict:
    """The constant W0(1, 0) from the defining formula, next to the
    differing constant stated in prose; the formula value is what every
    other identity in this module is consistent with."""
    c = _w0_alpha0()
    return {"from_formula": [c.real, c.imag], "prose_value": [0.0, 1.0 / (4.0 * SINH_1)]}


def check_closure(p: AlgebraParams) -> dict:
    """The residuals r1-r3 of the triple's three defining commutators (see
    `_residuals`); all dyadic data (s = alpha = 1) gives exactly zero."""
    gs = build_generators(p)
    residuals = _residuals(gs)
    return {
        "s": p.s,
        "alpha": p.alpha,
        **residuals,
        "max_residual": max(residuals.values()),
        "term_counts": {
            "w0": len(gs.w0),
            "w_plus": len(gs.w_plus),
            "w_minus": len(gs.w_minus),
            "g": len(gs.g),
            "f": len(gs.f),
        },
        "w0_alpha0_constant": w0_alpha0_report(),
    }


# -- any instance of the two-symbol family -------------------------------------


def verify_general_closure(j0: LaurentPoly, j: LaurentPoly, s: float) -> dict:
    """Closure residuals for arbitrary symbols j0(T), j(T) at parameter s.

    Builds the two-symbol family at (j0, j, s), the ladders j+/- and the
    closing symbols Gt and Ft (`_family`), and reports the residuals of the
    three commutators (`_residuals`).
    """
    gs = _family(j0, j, s)
    residuals = _residuals(gs)
    return {
        "s": s,
        "nu": phase_index_plus(s),
        "nu_prime": phase_index_minus(s),
        **residuals,
        "j_at_one": abs(j.eval_phase(0.0)),
        "term_counts": {
            "j_plus": len(gs.w_plus),
            "j_minus": len(gs.w_minus),
            "g_tilde": len(gs.g),
            "f_tilde": len(gs.f),
        },
        "max_residual": max(residuals.values()),
    }


# -- the small-s (Fourier) limit ------------------------------------------------


def fourier_limit_report(
    s_values: tuple[float, ...] = (1e-2, 1e-3, 1e-4),
    frequencies: tuple[int, ...] = (1, 2, 3),
) -> dict:
    """How the family degenerates to plain Fourier analysis as s -> 0.

    On e^{inx}, W0(s, 2) has an eigenvalue tending to n (the derivative),
    and W+/- tend to unit-coefficient frequency shifts n -> n +/- 1.
    Reports per (s, n): the W0 eigenvalue error and the W+/- coefficient
    errors and output frequencies, plus whether the W0 error shrinks
    monotonically along the s grid.
    """
    from .gridfn import ExpSum, apply_op_expsum

    rows = []
    for s in s_values:
        w0 = w_zero(s, 2.0)
        wp = w_plus(s)
        wm = w_minus(s)
        for n in frequencies:
            basis = ExpSum.exponential(1j * n)
            ev = apply_op_expsum(w0, basis).coefficient_of(1j * n)
            plus = apply_op_expsum(wp, basis)
            minus = apply_op_expsum(wm, basis)
            ((cp, rp),) = plus.terms()
            ((cm, rm),) = minus.terms()
            rows.append(
                {
                    "s": s,
                    "n": n,
                    "w0_eigenvalue_error": abs(ev - n),
                    "wplus_coeff_error": abs(cp - 1.0),
                    "wplus_frequency": rp.imag,
                    "wplus_frequency_error": abs(rp.imag - (n + 1)),
                    "wminus_coeff_error": abs(cm - 1.0),
                    "wminus_frequency": rm.imag,
                    "wminus_frequency_error": abs(rm.imag - (n - 1)),
                }
            )
    monotone = True
    for n in frequencies:
        errs = [r["w0_eigenvalue_error"] for r in rows if r["n"] == n]
        monotone = monotone and all(a > b for a, b in zip(errs, errs[1:]))
    return {"rows": rows, "w0_error_monotone": monotone}

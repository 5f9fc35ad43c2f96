"""Deformed translation/dilation generators and their closure checks.

The two-parameter family is generated by a symmetrized shift W0 and a pair
of dilation-carrying ladder operators W+/W-, whose commutators close
through two translation-symbol functions (here `g` and `f`).  A general
version replaces the fixed symbols with arbitrary Laurent symbols j0 and
j; `verify_general_closure` checks that family the same way.

Exactness policy: the flagship configuration (s, alpha) = (1, 1) must
produce *exactly zero* residuals in IEEE arithmetic.  Three things make
that work: quarter-turn trig is read from integer tables instead of
calling cos(pi/2), the W0 denominator groups sinh(s)/sinh(1) so the ratio
is exactly 1.0 at s = 1, and every phase angle proportional to (s - 1)
is exactly 0.0 there, in which case the e^{i*theta} factors are skipped
rather than computed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .laurent import EvaluationOverflowError, LaurentPoly
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


def _unit_phase(theta: float) -> complex:
    """e^{i theta}, kept exactly 1 when theta is exactly zero."""
    if theta == 0.0:
        return 1.0 + 0j
    return cmath.exp(1j * theta)


@dataclass(frozen=True)
class AlgebraParams:
    """Deformation parameter s and translation-scale parameter alpha."""

    s: float
    alpha: float

    @property
    def q(self) -> float:
        return math.exp(self.s)

    @property
    def xi(self) -> complex:
        """Normalizing constant of the W0 symbol."""
        return complex(
            sin_half_turn(self.alpha) / SINH_1, -2.0 * cos_half_turn(self.alpha)
        )


@dataclass(frozen=True)
class GeneratorSet:
    w0: OpExpr
    w_plus: OpExpr
    w_minus: OpExpr
    g: OpExpr
    f: OpExpr


# -- q-numbers and q-derivatives ----------------------------------------------


def q_number(x: float, s: float) -> float:
    """sinh(s x)/sinh(s); the s -> 0 branch returns x itself."""
    if s == 0.0:
        return float(x)
    if abs(s * x) > 700.0 or abs(s) > 700.0:
        raise EvaluationOverflowError(f"overflow: s*x = {s * x!r}")
    return math.sinh(s * x) / math.sinh(s)


def _shift_difference(s: float, kind: str) -> OpExpr:
    """T^s - T^-s (or the D version): the un-normalized derivative core."""
    if kind == "translation":
        return OpExpr.translation(s) - OpExpr.translation(-s)
    if kind == "dilation":
        return OpExpr.dilation(s) - OpExpr.dilation(-s)
    raise ValueError(f"kind must be 'translation' or 'dilation', got {kind!r}")


def invert_q_derivative(s: float, sign: int, kind: str = "translation") -> OpExpr:
    """Reconstruct T^{sign*s} (or D^{sign*s}) from difference cores.

    Square-root-free reading: the half-step difference squared restores
    the symmetric sum, T^s + T^-s = (T^{s/2} - T^{-s/2})^2 + 2, and adding
    sign*(T^s - T^-s) isolates one shift:

        T^{sign*s} = 1/2 [ sign*(T^s - T^-s) + (T^{s/2} - T^{-s/2})^2 + 2 ]

    Both differences come from _shift_difference, so the identity holds
    with exactly zero residual; a residual above 1e-12 raises.
    """
    if s == 0.0:
        raise ValueError("inversion needs s != 0")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    full = _shift_difference(s, kind)
    half = _shift_difference(s / 2.0, kind)
    reconstructed = (float(sign) * full + half * half + 2.0) * 0.5
    target = (
        OpExpr.translation(sign * s) if kind == "translation" else OpExpr.dilation(sign * s)
    )
    residual = (reconstructed - target).max_abs_coeff()
    if residual > 1e-12:
        raise ValueError(f"inversion identity violated: residual {residual!r}")
    return reconstructed


# -- the generator family ------------------------------------------------------


def _w0_coefficients(s: float, alpha: float) -> tuple[complex, complex]:
    """Coefficients of T^{s alpha} and T^{-s alpha} in W0.

    The denominator is grouped as 2*(sin(a pi/2) sinh(s)/sinh(1)
    - 2i cos(a pi/2) sinh(s)) so that at s = alpha = 1 the ratio
    sinh(s)/sinh(1) is the same-argument division, exactly 1.0.
    """
    sinh_s = math.sinh(s)
    if sinh_s == 0.0:
        raise ValueError("W0 is undefined at s = 0 (sinh s divides)")
    denom = 2.0 * complex(
        sin_half_turn(alpha) * (sinh_s / SINH_1), -2.0 * cos_half_turn(alpha) * sinh_s
    )
    return 1.0 / denom, -cos_full_turn_half(s) / denom


def phase_index_plus(s: float) -> float:
    """mu of the single P factor in W+ after merging the split phases."""
    return -(s - 1.0) * (1.0 + 2.0**-s) / 2.0


def phase_index_minus(s: float) -> float:
    """mu of the single P factor in W-."""
    return (s - 1.0) * (1.0 + 2.0**s) / 2.0


def w_plus(s: float) -> OpExpr:
    """Raising half: 1/2 P D^-s (1 + T^s) with the merged phase index."""
    return OpExpr.term(0.5, mu=phase_index_plus(s), beta=-s) * (
        OpExpr.identity() + OpExpr.translation(s)
    )


def w_minus(s: float) -> OpExpr:
    """Lowering half: 1/2 P D^s (1 + T^-s); at s = 1 this is the
    scaling-equation operator (its fixed functions satisfy the Haar
    two-scale relation)."""
    return OpExpr.term(0.5, mu=phase_index_minus(s), beta=s) * (
        OpExpr.identity() + OpExpr.translation(-s)
    )


def w_zero(s: float, alpha: float) -> OpExpr:
    c_plus, c_minus = _w0_coefficients(s, alpha)
    sa = s * alpha
    return OpExpr.term(c_plus, alpha=sa) + OpExpr.term(c_minus, alpha=-sa)


def build_generators(p: AlgebraParams) -> GeneratorSet:
    """W0, W+/-, and the two closure symbols g and f.

    g and f are pure translation symbols (beta = 0) with complex
    coefficients; the phase angles are all proportional to (s - 1) and
    vanish identically at s = 1.
    """
    s, alpha = p.s, p.alpha
    w0 = w_zero(s, alpha)
    wp = w_plus(s)
    wm = w_minus(s)

    c_plus, c_minus = _w0_coefficients(s, alpha)
    theta = s * alpha * (1.0 + 2.0**s) * (s - 1.0) / 2.0
    wide = (2.0**s) * s * alpha
    g = w0 - (
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
    return GeneratorSet(w0=w0, w_plus=wp, w_minus=wm, g=g, f=f)


def w0_alpha0_report() -> dict:
    """The constant W0(1, 0) from the defining formula, next to the
    differing constant stated in prose; the formula value is what every
    other identity in this module is consistent with."""
    w = w_zero(1.0, 0.0)
    (t,) = w.terms()
    return {
        "from_formula": [t.coeff.real, t.coeff.imag],
        "prose_value": [0.0, 1.0 / (4.0 * SINH_1)],
        "agree": abs(t.coeff - 1j / (4.0 * SINH_1)) <= 1e-12,
    }


def check_closure(p: AlgebraParams) -> dict:
    """Residuals of the three defining commutators as normal forms.

    r1 = [W0, W+] - g W+;  r2 = [W0, W-] + W- g;  r3 = [W+, W-] - f.
    All dyadic data (s = alpha = 1) gives exactly zero residuals.
    """
    gs = build_generators(p)
    r1 = commutator(gs.w0, gs.w_plus) - gs.g * gs.w_plus
    r2 = commutator(gs.w0, gs.w_minus) + gs.w_minus * gs.g
    r3 = commutator(gs.w_plus, gs.w_minus) - gs.f
    residuals = {
        "r1": r1.max_abs_coeff(),
        "r2": r2.max_abs_coeff(),
        "r3": r3.max_abs_coeff(),
    }
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


# -- the general two-symbol family ---------------------------------------------


def _poly_of_poly(coeffs: dict, p: LaurentPoly) -> LaurentPoly:
    """Evaluate a polynomial (degree -> coefficient) at a Laurent symbol."""
    out = LaurentPoly.zero()
    for deg, c in coeffs.items():
        if deg < 0 or deg != int(deg):
            raise ValueError("polynomial degrees must be nonnegative integers")
        term = LaurentPoly.scalar(c)
        for _ in range(int(deg)):
            term = term * p
        out = out + term
    return out


def verify_general_closure(
    j0: LaurentPoly,
    j: LaurentPoly,
    s: float,
    script_g: dict | None = None,
    script_f: dict | None = None,
) -> dict:
    """Closure residuals for arbitrary symbols j0(T), j(T) at parameter s.

    Builds j+ = P D^-s P j(T) and j- = P D^s P j(T^-1) with the same phase
    indices as W+/-, derives the closing symbols by substitution,

        Gt = j0(T) - j0(e^{i nu'} T^{2^s}),
        Ft = j(e^{i nu'} T^{2^s}) j(T^-1) - j(e^{-i nu} T^{-2^-s}) j(T),

    and reports the residuals of the three commutators.  When polynomial
    recursions for the closing symbols are supplied (degree -> coefficient
    maps), their substitution residuals

        j0(T^2) - j0(T) - script_g(j0(T^2))
        j(T^2) j(T^-1) - j(T^-1/2) j(T) - script_f(j0(T))

    are reported as well; they are measurements, not assertions.
    """
    nu = phase_index_plus(s)
    nu_prime = phase_index_minus(s)
    j_plus = OpExpr.term(1.0, mu=nu, beta=-s) * OpExpr.from_laurent(j)
    j_minus = OpExpr.term(1.0, mu=nu_prime, beta=s) * OpExpr.from_laurent(
        j.substitute_power(-1)
    )

    g_tilde = j0 - j0.substitute_scaled(2.0**s, nu_prime)
    f_tilde = j.substitute_scaled(2.0**s, nu_prime) * j.substitute_power(-1) - (
        j.substitute_scaled(-(2.0**-s), -nu) * j
    )
    g_op = OpExpr.from_laurent(g_tilde)
    f_op = OpExpr.from_laurent(f_tilde)

    j0_op = OpExpr.from_laurent(j0)
    r1 = commutator(j0_op, j_plus) - g_op * j_plus
    r2 = commutator(j0_op, j_minus) + j_minus * g_op
    r3 = commutator(j_plus, j_minus) - f_op

    report = {
        "s": s,
        "nu": nu,
        "nu_prime": nu_prime,
        "r1": r1.max_abs_coeff(),
        "r2": r2.max_abs_coeff(),
        "r3": r3.max_abs_coeff(),
        "j_at_one": abs(j.eval_phase(0.0)),
        "normalized": abs(j.eval_phase(0.0) - 1.0) <= 1e-12,
        "term_counts": {
            "j_plus": len(j_plus),
            "j_minus": len(j_minus),
            "g_tilde": len(g_tilde),
            "f_tilde": len(f_tilde),
        },
        "max_residual": max(
            r1.max_abs_coeff(), r2.max_abs_coeff(), r3.max_abs_coeff()
        ),
    }
    if script_g is not None:
        lhs = j0.substitute_power(2) - j0
        rhs = _poly_of_poly(script_g, j0.substitute_power(2))
        report["recursion_residual_g"] = (lhs - rhs).max_abs_coeff()
    if script_f is not None:
        from .laurent import Dyadic

        lhs = j.substitute_power(2) * j.substitute_power(-1) - j.substitute_power(
            Dyadic(-1, 1)
        ) * j
        rhs = _poly_of_poly(script_f, j0)
        report["recursion_residual_f"] = (lhs - rhs).max_abs_coeff()
    return report


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

"""Functional-equation solvers for two-scale systems.

Four related problems live here: the refinement eigenproblem that recovers
a detail symbol b and its eigen-scalar rho from a mask symbol c; the
telescoping equation chi(T) - chi(T^2) = r(T) solved along halving chains
of exponents; the commutant equation (1 + u^2) x(u) = (1 + u) x(u^2), whose
windowed nullspace a two-way recursion spans exactly; and the logarithmic
relabeling Gamma that turns the quadratic eigenvalue step a -> 2a^2 - 1 into
a unit shift, bridging the ladder spectrum to q-integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import _numpy as np
from .laurent import Dyadic, Exponent, LaurentPoly, _float_range, _pow2
from .gridfn import ExpSum, apply_op_expsum
from .qdeform import AlgebraParams, _dyadic_generators, build_generators, q_number

RESIDUAL_TOL = 1e-12


class NoSolutionInWindowError(ValueError):
    pass


class SymbolDomainError(ValueError):
    """A mask or right-hand side outside the domain of its equation."""


# -- refinement eigenproblem ---------------------------------------------------


@dataclass(frozen=True)
class RefinementSolve:
    """Solution of c(T^(1/2)) b(T^(1/2)) = rho * b(T)."""

    b: LaurentPoly
    rho: complex
    residual: float
    zero_order: int
    support_bound: int


def _mask_exponents(p: LaurentPoly) -> tuple[int, list[tuple[int, complex]]]:
    """(q, [(a, c)]) with each exponent of p equal to a / 2**q, exponents
    descending; q is the finest denominator exponent, at most 3."""
    terms = p.terms()
    for e, _ in terms:
        if not e.is_exact or e.dyadic.log2_den > 3:
            raise SymbolDomainError(
                f"mask exponents must be dyadic with denominator at most 8, got {e!r}")
    q = max([0] + [e.dyadic.log2_den for e, _ in terms])
    return q, [(e.dyadic.num << (q - e.dyadic.log2_den), c) for e, c in terms]


def _exact(z: complex) -> tuple[Fraction, Fraction]:
    """z as a (re, im) pair of Fractions: every float is a dyadic rational."""
    return Fraction(z.real), Fraction(z.imag)


def _equation_at(d: int, mask: list, rho: tuple, b: dict) -> tuple[Fraction, Fraction]:
    """The coefficient of v^d in c(v) b(v) - rho b(v^2), exactly."""
    pairs = [(ca, b[d - a]) for a, ca in mask if d - a in b]
    if d % 2 == 0 and d // 2 in b:
        pairs.append(((-rho[0], -rho[1]), b[d // 2]))
    return (sum(x[0] * y[0] - x[1] * y[1] for x, y in pairs),
            sum(x[0] * y[1] + x[1] * y[0] for x, y in pairs))


def solve_refinement(c: LaurentPoly, support_bound: int) -> RefinementSolve:
    """Find the detail symbol b and scalar rho for a given mask symbol c.

    In units v = T^(2^-(q+1)), 2^-q the finest exponent spacing of the mask,
    the equation reads c(v) b(v) = rho b(v^2) with c(v) = sum c_a v^a over
    a in [lo, hi].  Its highest and lowest exponents show that b spans
    exactly [lo, hi] and that rho = c_hi; the zero of b at T = 1 has some
    order m, so also rho = c(1) / 2^m, returned with m = round(log2 |c(1) /
    c_hi|).  With b_hi = 1 the equation at v^(hi + n) fixes b_n from the b_k,
    k > n, so b is unique.  The recursion runs in exact rationals and b is
    rounded once; the residual is the largest coefficient of
    c(T^(1/2)) b(T^(1/2)) - rho b(T), computed exactly for the returned b.

    Raises NoSolutionInWindowError when the mask leaves the window
    |exponent| <= support_bound, or when the residual exceeds RESIDUAL_TOL.
    """
    if support_bound < 1:
        raise ValueError(f"support_bound must be at least 1, got {support_bound}")
    q, mask = _mask_exponents(c)
    c_at_one = c.eval_phase(0.0)
    if abs(c_at_one) <= 1e-12:
        raise SymbolDomainError("mask must not vanish at T = 1")
    (hi, c_hi), lo = mask[0], mask[-1][0]
    m = round(math.log2(abs(c_at_one / c_hi)))
    no_solution = NoSolutionInWindowError(f"no solution in window |exponent| <= {support_bound}")
    if max(hi, -lo) > support_bound << q or not 0 <= m <= hi - lo:  # b has m + 1 terms or more
        raise no_solution
    rho = c_at_one / 2.0**m
    mask_x, rho_x, (u, w) = [(a, _exact(ca)) for a, ca in mask], _exact(rho), _exact(c_hi)

    b = {hi: (Fraction(1), Fraction(0))}
    if abs(complex(*map(float, _equation_at(2 * hi, mask_x, rho_x, b)))) > RESIDUAL_TOL:
        raise no_solution  # the residual's top coefficient, c_hi - rho, known already
    for n in range(hi - 1, lo - 1, -1):
        re, im = _equation_at(hi + n, mask_x, rho_x, b)  # without b_n, so -c_hi b_n
        b[n] = (-(re * u + im * w) / (u * u + w * w), (re * w - im * u) / (u * u + w * w))
    b_hat = LaurentPoly((Exponent.exact(Dyadic(n, q)), complex(float(re), float(im)))
                        for n, (re, im) in b.items())

    b_x = {e.dyadic.num << (q - e.dyadic.log2_den): _exact(x) for e, x in b_hat.terms()}
    residual = max(abs(complex(*map(float, _equation_at(d, mask_x, rho_x, b_x))))
                   for d in range(2 * lo, 2 * hi + 1))
    if residual > RESIDUAL_TOL:
        raise no_solution
    return RefinementSolve(b_hat, rho, residual, m, support_bound)


# -- telescoping halving chains ------------------------------------------------


@dataclass(frozen=True)
class ChiSolve:
    """Solution of chi(T) - chi(T^2) = r(T), fixed up to a constant."""

    chi: LaurentPoly
    free_constant: bool


def _orbit_key(e: Exponent) -> tuple:
    """Identify the halving chain an exponent belongs to.

    Dyadic exponents factor exactly as odd * 2^t; generic floats use the
    mantissa from frexp, rounded to merge values that differ by rounding
    noise only.
    """
    if e.is_exact:
        d = e.dyadic
        n = abs(d.num)
        t = 0
        while n % 2 == 0:
            n //= 2
            t += 1
        sign = 1 if d.num > 0 else -1
        return ("dyadic", sign * n), t - d.log2_den
    mant, ex = math.frexp(abs(e.value))
    sign = 1 if e.value > 0 else -1
    return ("float", sign * round(mant, 12)), ex


def solve_casimir_chi(r: LaurentPoly) -> ChiSolve:
    """Solve chi(T) - chi(T^2) = r(T) by summing along halving chains.

    Matching coefficients at exponent e gives chi_e - chi_{e/2} = r_e, so
    chi_e is the sum of r over the chain e, e/2, e/4, ...; the value at the
    top of each chain telescopes to the chain's total, which must vanish
    for chi to have finite support.  The constant term of chi is free; the
    returned solution sets it to zero.
    """
    if abs(r.coeff_at(0)) > 1e-12:
        raise SymbolDomainError("the right-hand side must have zero constant term")

    orbits: dict[tuple, dict[int, tuple[Exponent, complex]]] = {}
    for e, cc in r.terms():
        key, depth = _orbit_key(e)
        orbits.setdefault(key, {})[depth] = (e, cc)

    chi_terms = []
    for key, chain in sorted(orbits.items(), key=lambda kv: str(kv[0])):
        total = sum(cc for _, cc in chain.values())
        if abs(total) > 1e-12:
            exps = sorted(e.value for e, _ in chain.values())
            raise SymbolDomainError(
                f"inconsistent chain: exponents {exps} sum to {total!r}, "
                "so no finitely supported solution exists"
            )
        low, high = min(chain), max(chain)
        base_depth = low
        base_exp = chain[low][0]
        running = 0j
        for depth in range(low, high + 1):
            if depth in chain:
                exp_obj, cc = chain[depth]
                running += cc
            else:
                # chain gaps still carry the running sum; rebuild the
                # exponent by doubling the lowest member
                exp_obj = base_exp.scaled_pow2(depth - base_depth)
            if depth < high and abs(running) > 0.0:
                chi_terms.append((exp_obj, running))
            # the top of the chain carries the (vanishing) total
    return ChiSolve(LaurentPoly(chi_terms), free_constant=True)


def casimir_constancy_check(n_range: Iterable[int], a_tilde: float) -> dict:
    """Evaluate the conserved combination on the exponential rate family.

    The combination is (lowering o raising) + H applied to the averaging
    operator's eigenvalue, where H is the telescoping solution driven by
    the ladder commutator's symbol.  Its value must not depend on n, and the
    flipped ordering (raising o lowering) minus the commutator symbol must
    give the same number; the report measures both (max_spread,
    max_ordering_difference) and judges neither.  a_tilde = 0 collapses the
    family to constants, so that case is reported as skipped.
    """
    if a_tilde == 0.0:
        return {
            "a_tilde": 0.0,
            "skipped": "rate family degenerates to constants at a_tilde = 0",
        }
    gs = _dyadic_generators()
    f_symbol = gs.f.to_laurent()
    chi = solve_casimir_chi(f_symbol).chi

    rows = []
    for n in n_range:
        lam = _pow2(n) * a_tilde
        mode = ExpSum.exponential(lam)
        up_down = apply_op_expsum(gs.w_minus, apply_op_expsum(gs.w_plus, mode))
        down_up = apply_op_expsum(gs.w_plus, apply_op_expsum(gs.w_minus, mode))
        h_val = chi.eval_phase(lam)
        c_main = up_down.coefficient_of(lam) + h_val
        c_flip = down_up.coefficient_of(lam) + h_val - f_symbol.eval_phase(lam)
        rows.append(
            {
                "n": n,
                "rate": lam,
                "casimir": c_main,
                "flipped_ordering": c_flip,
                "ordering_difference": abs(c_main - c_flip),
            }
        )
    values = [row["casimir"] for row in rows]
    spread = max(abs(v - values[0]) for v in values)
    flip = max(row["ordering_difference"] for row in rows)
    return {
        "a_tilde": a_tilde,
        "rows": rows,
        "reference": values[0],
        "max_spread": spread,
        "max_ordering_difference": flip,
    }


# -- commutant nullspace -------------------------------------------------------

# coefficient pattern listed for the non-trivial commutant solution, scaled
# to a unit reference coefficient; the entry at index 0 is not listed and is
# set to zero
_LISTED_PATTERN = {
    -1: 1.0,
    -2: 1.0, -5: 1.0, 6: 1.0, -9: 1.0, -10: 1.0, 10: 1.0, 11: 1.0,
    1: -1.0, 4: -1.0, -7: -1.0, 8: -1.0, 9: -1.0, -12: -1.0, 12: -1.0,
}


def _commutant_solution(k: int, at_minus_one: int, at_zero: int) -> dict[int, int]:
    """The window solution with C_{-1} and C_0 given: the constraint at e >= 1
    fixes C_e from lower indices, the one at e <= 0 fixes C_{e-2} from higher."""
    x = {-1: at_minus_one, 0: at_zero}
    for e in range(1, k + 1):
        x[e] = x[e // 2] - x[e - 2]
    for e in range(0, -k + 1, -1):
        x[e - 2] = x[e // 2] - x[e]
    return x


def prop1_solve(window: int) -> dict:
    """Windowed study of (1 + u^2) x(u) = (1 + u) x(u^2).

    Matching coefficients of u^e gives C_e + C_{e-2} = C_{floor(e/2)}.  Only
    constraints whose three indices all lie in [-window, window] enter the
    system; the clipped boundary constraints are counted and flagged.  They
    fix every coefficient from C_{-1} and C_0, so the nullspace is exactly
    two-dimensional with integer entries.  The basis reported is t = 1 + u
    and its orthogonal complement 2s - (s.t)t, s the solution with
    C_{-1} = 1 and C_0 = 0, each scaled to unit length.  The listed candidate
    pattern for the second solution is compared against that nullspace,
    with differences reported, not enforced.
    """
    if window < 4:
        raise ValueError(f"window must be at least 4, got {window}")
    k = window
    interior = range(-k + 2, k + 1)

    def residual(x: dict, exps=interior) -> float:
        return float(max(abs(x[e] + x[e - 2] - x[e // 2]) for e in exps))

    trivial, second = _commutant_solution(k, 0, 1), _commutant_solution(k, 1, 0)
    overlap = sum(second[e] * trivial[e] for e in trivial)
    complement = {e: 2 * second[e] - overlap * trivial[e] for e in second}  # t.t = 2
    exps = range(-k, k + 1)
    vecs = [np.array([x[e] for e in exps], dtype=float) for x in (trivial, complement)]
    basis = [v / np.linalg.norm(v) for v in vecs]

    pattern = {e: _LISTED_PATTERN.get(e, 0.0) for e in exps}
    p = np.array([pattern[e] for e in exps])
    p_hat = p / np.linalg.norm(p)
    proj = sum((v @ p_hat) * v for v in basis)
    return {
        "window": k,
        "nullspace_dim": len(basis),
        "basis": [{e: float(x) for e, x in zip(exps, v) if x != 0.0} for v in basis],
        "interior_exponents": (-k + 2, k),
        "boundary_exponents": [-k, -k + 1, k + 1, k + 2],
        "boundary_truncated": True,
        "trivial_residual": residual(trivial),
        "complement_residual": residual(complement),
        "complement_nonzero_count": int(np.count_nonzero(vecs[1])),
        # the pattern is listed up to |exponent| 12
        "pattern_constraint_residual": residual(
            pattern, [e for e in interior if max(abs(e), abs(e - 2)) <= 12]),
        "pattern_nullspace_distance": float(np.linalg.norm(p_hat - proj)),
    }


# -- logarithmic relabeling of the eigenvalue step ------------------------------


@dataclass(frozen=True)
class GammaMap:
    """Gamma(xi) = sign * (-log2(arccosh(xi) / b_const)), defined for xi > 1."""

    b_const: float = 1.0
    sign: int = 1

    def __post_init__(self):
        if not self.b_const > 0.0:
            raise ValueError(f"b_const must be positive, got {self.b_const!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")


def gamma_eval(m: GammaMap, xi: float) -> float:
    if not xi > 1.0:
        raise ValueError(f"gamma is defined for xi > 1, got {xi!r}")
    return m.sign * (-math.log2(math.acosh(xi) / m.b_const))


def gamma_inverse(m: GammaMap, y: float) -> float:
    return math.cosh(m.b_const * 2.0 ** (-m.sign * y))


def gamma_ladder_report(
    m: GammaMap, points: int = 100, lo: float = 1.001, hi: float = 1.0e3
) -> dict:
    """How far the eigenvalue step is from dropping Gamma by one unit (times sign).

    Measured on a log-spaced grid in (1, hi]; the grid starts a hair above 1
    because arccosh loses half its digits as xi -> 1+.  The report also
    carries the inverse round trip, two anchors and the grid rows [xi, G, G(2xi^2-1), err].
    An anchor cosh(b) or cosh(2b) beyond the float range raises
    EvaluationOverflowError naming it.
    """
    if points < 2:
        raise ValueError(f"points must be at least 2, got {points}")
    if not 1.0 < lo < hi:
        raise ValueError(f"need 1 < lo < hi, got {lo!r}, {hi!r}")
    rows = []
    round_err = 0.0
    lg_lo, lg_hi = math.log10(lo), math.log10(hi)
    for i in range(points):
        xi = 10.0 ** (lg_lo + (lg_hi - lg_lo) * i / (points - 1))
        g = gamma_eval(m, xi)
        stepped = gamma_eval(m, 2.0 * xi * xi - 1.0)
        rows.append([xi, g, stepped, abs(stepped - (g - m.sign))])
        round_err = max(round_err, abs(gamma_inverse(m, g) - xi) / max(1.0, xi))
    with _float_range("cosh(b)", f"b = {m.b_const!r}"):
        at_cosh1 = math.cosh(m.b_const)
    with _float_range("cosh(2b)", f"b = {m.b_const!r}"):
        at_cosh2 = math.cosh(2.0 * m.b_const)
    return {
        "points": points,
        "grid": (lo, hi),
        "rows": rows,
        "max_step_error": max(0.0, *(r[3] for r in rows)),
        "max_roundtrip_error": round_err,
        "anchor_at_cosh1": gamma_eval(m, at_cosh1),
        "anchor_at_cosh2": gamma_eval(m, at_cosh2),
    }


def suq2_bridge_check(
    m: GammaMap,
    s: float,
    a_tilde: float,
    n_range: Iterable[int],
    j0_values: Sequence[float] = (0.0, -1.0, -2.0),
) -> dict:
    """Relabel the ladder spectrum by Gamma and compare against q-integers.

    Measures how far Gamma is from dropping by one unit along the ladder
    and phi = q^(-Gamma) from gaining a factor q per step, with q = e^s.
    The third piece, the commutator symbol evaluated at Gamma-preimages
    next to the q-integers [2 J0]_q, is tabulated for inspection only.
    A q, a_n, phi_n or tabulated xi beyond the float range raises
    EvaluationOverflowError naming it.
    """
    if s == 0.0:
        raise ValueError("s must be nonzero; q = e^s degenerates at s = 0")
    if a_tilde == 0.0:
        raise ValueError("a_tilde must be nonzero; the rate family degenerates")
    with _float_range("q = e^s", f"s = {s!r}"):
        q = math.exp(s)
    ns = sorted(n_range)
    if len(ns) < 2:
        raise ValueError("n_range must contain at least two indices")
    a_vals = {}
    for n in ns:
        with _float_range("a_n = cosh(2^n a_tilde)", f"n = {n}, a_tilde = {a_tilde!r}"):
            a_vals[n] = math.cosh(_pow2(n) * a_tilde)

    gamma_rows = []
    g_err = 0.0
    phi_err = 0.0
    for n, n_next in zip(ns, ns[1:]):
        if n_next != n + 1:
            raise ValueError(f"n_range must be consecutive, got {ns}")
        g_n = gamma_eval(m, a_vals[n])
        g_next = gamma_eval(m, a_vals[n + 1])
        d_err = abs(g_next - (g_n - m.sign))
        with _float_range("phi_n = q^(-Gamma(a_n))", f"n = {n}, s = {s!r}"):
            phi_n = q**(-g_n)
        with _float_range("phi_n = q^(-Gamma(a_n))", f"n = {n + 1}, s = {s!r}"):
            phi_next = q**(-g_next)
        p_err = abs(phi_next - q**m.sign * phi_n) / max(1.0, abs(phi_next))
        g_err = max(g_err, d_err)
        phi_err = max(phi_err, p_err)
        gamma_rows.append(
            {
                "n": n,
                "a_n": a_vals[n],
                "gamma": g_n,
                "gamma_next": g_next,
                "step_error": d_err,
                "phi_ratio_error": p_err,
            }
        )

    gs = build_generators(AlgebraParams(s, 1.0))
    f_symbol = gs.f.to_laurent()
    bridge_rows = []
    for y in j0_values:
        with _float_range("xi = cosh(b 2^(-sign J0))", f"J0 = {y!r}"):
            lam = m.b_const * 2.0 ** (-m.sign * y)
            xi = math.cosh(lam)
        f_val = f_symbol.eval_phase(lam)
        bracket = q_number(2.0 * y, s)
        bridge_rows.append(
            {
                "j0": y,
                "xi": xi,
                "f_value": (f_val.real, f_val.imag),
                "q_bracket_2j0": bracket,
            }
        )

    return {
        "s": s,
        "q": q,
        "a_tilde": a_tilde,
        "gamma_rows": gamma_rows,
        "max_gamma_step_error": g_err,
        "max_phi_ratio_error": phi_err,
        "bridge_rows": bridge_rows,
        "bridge_table_asserted": False,
    }

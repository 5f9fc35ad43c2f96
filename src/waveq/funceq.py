"""Functional-equation solvers for two-scale systems.

Four related problems live here: the refinement eigenproblem that recovers
a detail symbol b and its eigen-scalar rho from a mask symbol c; the
telescoping equation chi(T) - chi(T^2) = r(T) solved along halving chains
of exponents; the commutant equation (1 + u^2) x(u) = (1 + u) x(u^2) whose
windowed nullspace is studied directly; and the logarithmic relabeling
Gamma that turns the quadratic eigenvalue step a -> 2a^2 - 1 into a unit
shift, bridging the ladder spectrum to q-integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .laurent import Dyadic, Exponent, LaurentPoly
from .gridfn import ExpSum, apply_op_expsum
from .qdeform import AlgebraParams, build_generators, q_number

NULLSPACE_TOL = 1e-10
RESIDUAL_TOL = 1e-12


class NoSolutionInWindowError(ValueError):
    pass


class NonUniqueSolutionError(ValueError):
    """Nullspace dimension above one; all basis vectors ride along."""

    def __init__(self, message: str, basis: list[LaurentPoly]):
        super().__init__(message)
        self.basis = basis


# -- refinement eigenproblem ---------------------------------------------------


@dataclass(frozen=True)
class RefinementSolve:
    """Solution of c(T^(1/2)) b(T^(1/2)) = rho * b(T)."""

    b: LaurentPoly
    rho: complex
    residual: float
    zero_order: int
    support_bound: int


def _mask_exponents(p: LaurentPoly, what: str) -> tuple[int, list[tuple[int, complex]]]:
    """(q, [(a, c)]) with each exponent of p equal to a / 2**q; q is the finest
    denominator exponent, at least 2 (quarters), and at most 3."""
    terms = p.terms()
    for e, _ in terms:
        if not e.is_exact or e.dyadic.log2_den > 3:
            raise ValueError(
                f"{what} exponents must be dyadic with denominator at most 8, "
                f"got {e!r}"
            )
    q = max([2] + [e.dyadic.log2_den for e, _ in terms])
    return q, [(e.dyadic.num << (q - e.dyadic.log2_den), c) for e, c in terms]


def _nullspace(a: np.ndarray, tol: float) -> list[np.ndarray]:
    _, s, vh = np.linalg.svd(a)
    rank = int((s > tol * s[0]).sum()) if s.size and s[0] > 0.0 else 0
    return [vh[i].conj() for i in range(rank, vh.shape[0])]


def solve_refinement(
    c: LaurentPoly,
    support_bound: int,
    nullspace_tol: float = NULLSPACE_TOL,
) -> RefinementSolve:
    """Find the detail symbol b and scalar rho for a given mask symbol c.

    Coefficient matching runs over exponents on the grid 2^-q Z with
    |exponent| <= support_bound, 2^-q the finest spacing in the mask but
    at most a quarter.  Since any solution satisfies
    rho = c(1) / 2^m with m the order of the zero of b at T = 1, candidate
    scalars are scanned in ascending m and the first unique nullvector is
    returned with its leading coefficient normalized to one.

    Raises NoSolutionInWindowError when the scan exhausts without a
    solution and NonUniqueSolutionError (basis attached) when a candidate
    scalar admits more than one independent solution.
    """
    if support_bound < 1:
        raise ValueError(f"support_bound must be at least 1, got {support_bound}")
    q, mask = _mask_exponents(c, "mask")
    c_at_one = c.eval_phase(0.0)
    if abs(c_at_one) <= 1e-12:
        raise ValueError("mask must not vanish at T = 1")

    steps = support_bound << q
    cols = list(range(-steps, steps + 1))  # column n holds the exponent n / 2**q
    col_of = {n: i for i, n in enumerate(cols)}
    for m in range(steps + 5):
        rho = c_at_one / 2.0**m
        row_of: dict[int, int] = {}
        entries: list[tuple[int, int, complex]] = []
        for n in cols:
            j = col_of[n]
            for a, cc in mask:
                # product exponent a/2**q/2 + n/2**q/2, in units of 2**-(q+1)
                key = a + n
                entries.append((row_of.setdefault(key, len(row_of)), j, cc))
            key = 2 * n
            entries.append((row_of.setdefault(key, len(row_of)), j, -rho))
        a = np.zeros((len(row_of), len(cols)), dtype=complex)
        for i, j, v in entries:
            a[i, j] += v
        basis = _nullspace(a, nullspace_tol)
        if not basis:
            continue
        if len(basis) > 1:
            polys = [_vector_to_poly(v, cols, q) for v in basis]
            raise NonUniqueSolutionError(
                f"non-unique solution at rho = {rho!r}: "
                f"nullspace dimension {len(basis)}",
                polys,
            )
        b = _vector_to_poly(basis[0], cols, q)
        residual = _refinement_residual(c, b, rho)
        if residual <= RESIDUAL_TOL:
            return RefinementSolve(b, rho, residual, m, support_bound)
    raise NoSolutionInWindowError(
        f"no solution in window |exponent| <= {support_bound}"
    )


def _vector_to_poly(v: np.ndarray, cols: Sequence[int], q: int) -> LaurentPoly:
    peak = float(np.abs(v).max())
    live = [i for i in range(len(cols)) if abs(v[i]) > 1e-11 * peak]
    lead = v[live[-1]]  # cols ascend, so the last survivor is the leading term
    return LaurentPoly(
        (Exponent.exact(Dyadic(cols[i], q)), complex(v[i] / lead)) for i in live
    )


def _refinement_residual(c: LaurentPoly, b: LaurentPoly, rho: complex) -> float:
    half = Dyadic(1, 1)
    lhs = c.substitute_power(half) * b.substitute_power(half)
    return (lhs - b * rho).max_abs_coeff()


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


def solve_casimir_chi(
    r: LaurentPoly, support_bound: float | None = None
) -> ChiSolve:
    """Solve chi(T) - chi(T^2) = r(T) by summing along halving chains.

    Matching coefficients at exponent e gives chi_e - chi_{e/2} = r_e, so
    chi_e is the sum of r over the chain e, e/2, e/4, ...; the value at the
    top of each chain telescopes to the chain's total, which must vanish
    for chi to have finite support.  The constant term of chi is free; the
    returned solution sets it to zero.
    """
    if abs(r.coeff_at(0)) > 1e-12:
        raise ValueError("the right-hand side must have zero constant term")
    if support_bound is not None:
        worst = max((abs(e.value) for e, _ in r.terms()), default=0.0)
        if worst > support_bound:
            raise ValueError(
                f"exponent {worst!r} exceeds support bound {support_bound!r}"
            )

    orbits: dict[tuple, dict[int, tuple[Exponent, complex]]] = {}
    for e, cc in r.terms():
        key, depth = _orbit_key(e)
        orbits.setdefault(key, {})[depth] = (e, cc)

    chi_terms = []
    for key, chain in sorted(orbits.items(), key=lambda kv: str(kv[0])):
        total = sum(cc for _, cc in chain.values())
        if abs(total) > 1e-12:
            exps = sorted(e.value for e, _ in chain.values())
            raise ValueError(
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


def casimir_constancy_check(
    n_range: Iterable[int], a_tilde: float, tol: float = 1e-11
) -> dict:
    """Evaluate the conserved combination on the exponential rate family.

    The combination is (lowering o raising) + H applied to the averaging
    operator's eigenvalue, where H is the telescoping solution driven by
    the ladder commutator's symbol.  Its value must not depend on n.  The
    flipped ordering (raising o lowering) minus the commutator symbol must
    give the same number.  a_tilde = 0 collapses the family to constants,
    so that case is reported as skipped rather than judged.
    """
    if a_tilde == 0.0:
        return {
            "a_tilde": 0.0,
            "skipped": "rate family degenerates to constants at a_tilde = 0",
        }
    gs = build_generators(AlgebraParams(1.0, 1.0))
    f_symbol = gs.f.to_laurent()
    chi = solve_casimir_chi(f_symbol).chi

    rows = []
    for n in n_range:
        lam = 2.0**n * a_tilde
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
        "constant_ok": spread <= tol,
        "orderings_ok": flip <= tol,
        "tolerance": tol,
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


def prop1_solve(window: int, nullspace_tol: float = NULLSPACE_TOL) -> dict:
    """Windowed study of (1 + u^2) x(u) = (1 + u) x(u^2).

    Matching coefficients of u^e gives C_e + C_{e-2} = C_{e/2} (e even) or
    C_{(e-1)/2} (e odd).  Only constraints whose three indices all lie in
    [-window, window] enter the system; the clipped boundary constraints
    are counted and flagged.  x(u) = 1 + u always solves and its interior
    residual is exactly zero.  The listed candidate pattern for the second
    solution is compared against the computed nullspace, with differences
    reported, not enforced.
    """
    if window < 4:
        raise ValueError(f"window must be at least 4, got {window}")
    k = window
    idx = {e: i for i, e in enumerate(range(-k, k + 1))}

    def half(e: int) -> int:
        return e // 2 if e % 2 == 0 else (e - 1) // 2

    interior = list(range(-k + 2, k + 1))
    boundary = [-k, -k + 1, k + 1, k + 2]
    a = np.zeros((len(interior), len(idx)))
    for i, e in enumerate(interior):
        a[i, idx[e]] += 1.0
        a[i, idx[e - 2]] += 1.0
        a[i, idx[half(e)]] -= 1.0

    # the matrix is real, so the singular vectors come back real already
    basis = [v / np.linalg.norm(v) for v in _nullspace(a, nullspace_tol)]

    trivial = np.zeros(len(idx))
    trivial[idx[0]] = 1.0
    trivial[idx[1]] = 1.0
    trivial_residual = float(np.abs(a @ trivial).max())

    t_hat = trivial / np.linalg.norm(trivial)
    complement = None
    for v in basis:
        w = v - (v @ t_hat) * t_hat
        if complement is None or np.linalg.norm(w) > np.linalg.norm(complement):
            complement = w
    nonzero_count = 0
    if complement is not None and np.linalg.norm(complement) > 1e-8:
        complement = complement / np.linalg.norm(complement)
        nonzero_count = int(
            (np.abs(complement) > 1e-8 * np.abs(complement).max()).sum()
        )

    pattern = np.zeros(len(idx))
    for e, v in _LISTED_PATTERN.items():
        if -k <= e <= k:
            pattern[idx[e]] = v
    covered = [
        e
        for e in interior
        if max(abs(e), abs(e - 2), abs(half(e))) <= min(k, 12)
    ]
    pattern_residual = max(
        abs(pattern[idx[e]] + pattern[idx[e - 2]] - pattern[idx[half(e)]])
        for e in covered
    )
    p_hat = pattern / np.linalg.norm(pattern)
    proj = sum((v @ p_hat) * v for v in basis) if basis else np.zeros(len(idx))
    pattern_distance = float(np.linalg.norm(p_hat - proj))

    def as_dict(v: np.ndarray) -> dict[int, float]:
        peak = np.abs(v).max()
        return {
            e: float(v[idx[e]])
            for e in range(-k, k + 1)
            if abs(v[idx[e]]) > 1e-10 * peak
        }

    return {
        "window": k,
        "nullspace_dim": len(basis),
        "basis": [as_dict(v) for v in basis],
        "interior_exponents": (-k + 2, k),
        "boundary_exponents": boundary,
        "boundary_truncated": True,
        "trivial_residual": trivial_residual,
        "complement_nonzero_count": nonzero_count,
        "pattern_constraint_residual": float(pattern_residual),
        "pattern_nullspace_distance": pattern_distance,
    }


def uniqueness_check(x: LaurentPoly, j: LaurentPoly, points: int = 64) -> dict:
    """Circle sweeps for the commutant condition x(z^2) j(z) = x(z) j(z^2).

    Also checks the two normalization values x(1) = 1 and x(-1) = 0, the
    quadrature partition |x(z)|^2 + |x(-z)|^2 = 1 on the unit circle, and
    whether x coincides with j scaled to unit value at 1.  Violations are
    reported, never raised: the caller decides what is fatal.
    """
    x_at_one = x.eval_phase(0.0)
    x_at_minus_one = x.eval_phase(1j * math.pi)
    commutant = 0.0
    partition = 0.0
    for i in range(points):
        theta = 2.0 * math.pi * i / points
        z = 1j * theta
        lhs = x.eval_phase(2.0 * z) * j.eval_phase(z)
        rhs = x.eval_phase(z) * j.eval_phase(2.0 * z)
        commutant = max(commutant, abs(lhs - rhs))
        split = abs(x.eval_phase(z)) ** 2 + abs(x.eval_phase(1j * (theta + math.pi))) ** 2
        partition = max(partition, abs(split - 1.0))
    j_at_one = j.eval_phase(0.0)
    matches = False
    if abs(j_at_one) > 1e-12:
        matches = x.isclose(j * (1.0 / j_at_one), tol=1e-12)
    return {
        "points": points,
        "x_at_one": x_at_one,
        "x_at_one_ok": abs(x_at_one - 1.0) <= 1e-12,
        "x_at_minus_one": x_at_minus_one,
        "x_at_minus_one_ok": abs(x_at_minus_one) <= 1e-12,
        "commutant_max": commutant,
        "commutant_ok": commutant <= 1e-12,
        "partition_max": partition,
        "partition_ok": partition <= 1e-12,
        "matches_normalized_j": matches,
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
    """The eigenvalue step drops Gamma by exactly one unit (times sign).

    Checked on a log-spaced grid in (1, hi]; the grid starts a hair above 1
    because arccosh loses half its digits as xi -> 1+.  The report also
    carries the round trip through the inverse and two anchor values.
    """
    if points < 2:
        raise ValueError(f"points must be at least 2, got {points}")
    if not 1.0 < lo < hi:
        raise ValueError(f"need 1 < lo < hi, got {lo!r}, {hi!r}")
    step_err = 0.0
    round_err = 0.0
    lg_lo, lg_hi = math.log10(lo), math.log10(hi)
    for i in range(points):
        xi = 10.0 ** (lg_lo + (lg_hi - lg_lo) * i / (points - 1))
        g = gamma_eval(m, xi)
        stepped = gamma_eval(m, 2.0 * xi * xi - 1.0)
        step_err = max(step_err, abs(stepped - (g - m.sign)))
        round_err = max(round_err, abs(gamma_inverse(m, g) - xi) / max(1.0, xi))
    return {
        "points": points,
        "grid": (lo, hi),
        "max_step_error": step_err,
        "max_roundtrip_error": round_err,
        "ladder_ok": step_err <= 1e-12,
        "anchor_at_cosh1": gamma_eval(m, math.cosh(m.b_const)),
        "anchor_at_cosh2": gamma_eval(m, math.cosh(2.0 * m.b_const)),
    }


def suq2_bridge_check(
    m: GammaMap,
    s: float,
    a_tilde: float,
    n_range: Iterable[int],
    j0_values: Sequence[float] = (0.0, -1.0, -2.0),
) -> dict:
    """Relabel the ladder spectrum by Gamma and compare against q-integers.

    Asserts (within 1e-12) that Gamma drops by one unit along the ladder
    and that phi = q^(-Gamma) gains a factor q per step, with q = e^s.
    The third piece, the commutator symbol evaluated at Gamma-preimages
    next to the q-integers [2 J0]_q, is tabulated for inspection only:
    the report never judges that comparison.
    """
    if s == 0.0:
        raise ValueError("s must be nonzero; q = e^s degenerates at s = 0")
    if a_tilde == 0.0:
        raise ValueError("a_tilde must be nonzero; the rate family degenerates")
    q = math.exp(s)
    ns = sorted(n_range)
    if len(ns) < 2:
        raise ValueError("n_range must contain at least two indices")
    a_vals = {n: math.cosh(2.0**n * a_tilde) for n in ns}

    gamma_rows = []
    g_err = 0.0
    phi_err = 0.0
    for n, n_next in zip(ns, ns[1:]):
        if n_next != n + 1:
            raise ValueError(f"n_range must be consecutive, got {ns}")
        g_n = gamma_eval(m, a_vals[n])
        g_next = gamma_eval(m, a_vals[n + 1])
        d_err = abs(g_next - (g_n - m.sign))
        phi_n = q**(-g_n)
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
        "gamma_ladder_ok": g_err <= 1e-12,
        "phi_ladder_ok": phi_err <= 1e-12,
        "bridge_rows": bridge_rows,
        "bridge_table_asserted": False,
    }

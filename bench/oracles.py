"""Reference computations the benchmark checks waveq's outputs against.

Nothing in this module imports waveq.  Each oracle recomputes a quantity
from its definition: exact rationals for dyadic words, closed forms for the
action of the halving word on exponentials and for the B-spline refinement
pair, mpmath at high precision for the deformed profile and the eigenvalue
curves, and point-by-point index arithmetic for grid application.  Program
outputs enter only as plain numbers (coefficients and exponent values), so
the checks keep working when the library's internal term representation
changes.

Tolerances for approximate results are a-priori rounding bounds in units of
the double-precision unit roundoff u = 2^-53 (Higham, Accuracy and Stability
of Numerical Algorithms, 2nd ed., ch. 3-4): a sum of N terms computed in
floating point is off by at most about N u times the sum of the terms'
magnitudes, so a tolerance is N u times a measured magnitude sum, never a
constant chosen to make a check pass.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

UNIT_ROUNDOFF = 2.0**-53
MP_DIGITS = 40


def _value(e) -> float:
    """Exponent value of a program term, whatever object carries it."""
    return float(getattr(e, "value", e))


# -- exact dyadic words --------------------------------------------------------
#
# A word is a dict {(mu, beta, alpha): coeff} of Fractions, beta an integer.
# Composition follows the normal-ordering rule for c P^mu D^beta T^alpha,
#   (c1 P^m1 D^b1 T^a1)(c2 P^m2 D^b2 T^a2)
#       = c1 c2 e^{i m2 a1} P^(m1 + 2^b1 m2) D^(b1+b2) T^(2^b2 a1 + a2),
# restricted to words whose phase factor is 1 so everything stays rational.


def word_product(x: dict, y: dict) -> dict:
    out: dict = {}
    for (m1, b1, a1), c1 in x.items():
        for (m2, b2, a2), c2 in y.items():
            if m2 != 0 and a1 != 0:
                raise ValueError("phase factor e^{i m2 a1} is not rational")
            key = (m1 + m2 * Fraction(2) ** b1, b1 + b2, a1 * Fraction(2) ** b2 + a2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def word_power(x: dict, n: int) -> dict:
    out = {(Fraction(0), 0, Fraction(0)): Fraction(1)}
    for _ in range(n):
        out = word_product(out, x)
    return out


def doubled_halving_word(n: int) -> dict:
    """(2 W-(1))^n with 2 W-(1) = D (1 + T^-1), as exact rationals."""
    base = {
        (Fraction(0), 1, Fraction(0)): Fraction(1),
        (Fraction(0), 1, Fraction(-1)): Fraction(1),
    }
    return word_power(base, n)


def word_from_terms(terms) -> dict:
    """Exact rational form of program OpTerms (coeff, mu, beta, alpha).

    Raises ValueError when a coefficient is not real or a dilation power is
    not an integer; floats convert to Fractions exactly.
    """
    out = {}
    for t in terms:
        c = complex(t.coeff)
        if c.imag != 0.0:
            raise ValueError(f"coefficient {c!r} is not real")
        beta = Fraction(_value(t.beta))
        if beta.denominator != 1:
            raise ValueError(f"dilation power {beta} is not an integer")
        key = (Fraction(_value(t.mu)), int(beta), Fraction(_value(t.alpha)))
        out[key] = out.get(key, 0) + Fraction(c.real)
    return out


# -- exact Laurent products ----------------------------------------------------


def laurent_power(p: dict, k: int) -> dict:
    """p^k for p = {Fraction exponent: Fraction coeff}, zero terms dropped."""
    out = {Fraction(0): Fraction(1)}
    for _ in range(k):
        nxt: dict = {}
        for e1, c1 in out.items():
            for e2, c2 in p.items():
                nxt[e1 + e2] = nxt.get(e1 + e2, 0) + c1 * c2
        out = {e: c for e, c in nxt.items() if c != 0}
    return out


def laurent_from_terms(terms) -> dict:
    out = {}
    for e, c in terms:
        c = complex(c)
        if c.imag != 0.0:
            raise ValueError(f"coefficient {c!r} is not real")
        key = Fraction(_value(e))
        out[key] = out.get(key, 0) + Fraction(c.real)
    return out


# -- the halving word on exponentials --------------------------------------------


def _phase_index_minus(s):
    """mu of W-(s) from its definition, (s - 1)(1 + 2^s)/2, in mpmath."""
    s = mpmath.mpf(s)
    return (s - 1) * (1 + mpmath.power(2, s)) / 2


def word_on_exponential(s: float, n: int, lam: complex):
    """Closed-form action of (2 W-(s))^n on e^{lam x}.

    2 W-(s) e^{l x} = (1 + e^{-l s}) e^{(2^s l + i mu) x}, so n steps give
    prod_k (1 + e^{-l_k s}) e^{l_n x} with l_0 = lam and
    l_{k+1} = 2^s l_k + i mu.  Returns (coefficient, l_n) in mpmath.
    """
    with mpmath.workdps(MP_DIGITS):
        s_mp = mpmath.mpf(s)
        mu = _phase_index_minus(s)
        two_s = mpmath.power(2, s_mp)
        coeff = mpmath.mpc(1)
        rate = mpmath.mpc(lam)
        for _ in range(n):
            coeff *= 1 + mpmath.exp(-rate * s_mp)
            rate = two_s * rate + 1j * mu
        return coeff, rate


def normal_form_on_exponential(terms, lam: complex):
    """Evaluate a normal form's terms on e^{lam x} in high precision.

    c P^mu D^beta T^alpha sends e^{lam x} to c e^{lam alpha} e^{(2^beta lam
    + i mu) x}.  Returns (sum of coefficients, list of output rates, sum of
    coefficient magnitudes); the program's float data are taken as exact.
    """
    with mpmath.workdps(MP_DIGITS):
        lam_mp = mpmath.mpc(lam)
        total = mpmath.mpc(0)
        mags = mpmath.mpf(0)
        rates = []
        for t in terms:
            c = mpmath.mpc(complex(t.coeff)) * mpmath.exp(lam_mp * _value(t.alpha))
            total += c
            mags += abs(c)
            rates.append(
                mpmath.power(2, _value(t.beta)) * lam_mp + 1j * mpmath.mpf(_value(t.mu))
            )
        return total, rates, mags


# -- the deformed profile ----------------------------------------------------------


def _seed_arctan(y):
    return mpmath.atan(2 * y) / mpmath.pi


def deformed_values(s: float, n: int, xs):
    """Unnormalized (1 - T^{-2^-n}) (2 W-(s))^n arctan-seed values at xs.

    Evaluated through the factored recursion
        F_0 = seed,  F_k(x) = e^{i mu x} [F_{k-1}(2^s x) + F_{k-1}(2^s x - s)],
    then F_n(x) - F_n(x - 2^-n), in mpmath.  The same recursion on absolute
    values gives the sum of the expanded word's term magnitudes at x.
    Returns a list of (value, magnitude_sum) pairs.
    """
    with mpmath.workdps(MP_DIGITS):
        s_mp = mpmath.mpf(s)
        mu = _phase_index_minus(s)
        two_s = mpmath.power(2, s_mp)

        def f(k, x):
            if k == 0:
                v = _seed_arctan(x)
                return v, abs(v)
            y = two_s * x
            v1, m1 = f(k - 1, y)
            v2, m2 = f(k - 1, y - s_mp)
            return mpmath.expj(mu * x) * (v1 + v2), m1 + m2

        h = mpmath.mpf(2) ** -n
        out = []
        for x in xs:
            x = mpmath.mpf(x)
            a, ma = f(n, x)
            b, mb = f(n, x - h)
            out.append((a - b, ma + mb))
        return out


def ratio_tolerance(values, i: int, j: int, term_count: int) -> float:
    """Bound on the relative error of v_i / v_j computed in floating point.

    Each value is a sum of term_count terms, so its relative error is at
    most term_count * u * (sum |terms|) / |sum|, the condition number of
    the sum times the rounding of each addition (Higham, ch. 4); the
    ratio's relative error is at most the sum of the two.
    """
    (vi, mi), (vj, mj) = values[i], values[j]
    kappa_i = float(mi / abs(vi))
    kappa_j = float(mj / abs(vj))
    return term_count * UNIT_ROUNDOFF * (kappa_i + kappa_j)


# -- B-spline refinement pairs --------------------------------------------------------


def bspline_mask(h: Fraction, m: int) -> dict:
    """c = 2 ((1 + T^{-h})/2)^m as {exponent: coeff}."""
    return {-k * h: Fraction(2 * math.comb(m, k), 2**m) for k in range(m + 1)}


def bspline_detail(h: Fraction, m: int) -> tuple[dict, Fraction]:
    """b = (1 - T^{-h})^m and rho = 2^{1-m}, the pair c(T^1/2) b(T^1/2) = rho b(T)
    has for the B-spline mask, with b's T^0 coefficient equal to 1."""
    b = {-k * h: Fraction((-1) ** k * math.comb(m, k)) for k in range(m + 1)}
    return b, Fraction(2, 2**m)


def refinement_tolerance(h: Fraction, m: int, window: int) -> float:
    """Forward-error bound for the normalized null vector b.

    The coefficient-matching matrix A (quarter-integer exponents up to
    window) is rebuilt here from the equation itself.  A backward-stable
    SVD perturbs A by about ncols * u * sigma_max, which turns the null
    vector by at most that over the gap sigma_{r} to the rest of the
    spectrum; normalizing by the leading coefficient scales the error by
    |b|_2.  Returns ncols * u * (sigma_max / sigma_r) * |b|_2^2.
    """
    import numpy as np

    c = bspline_mask(h, m)
    b, rho = bspline_detail(h, m)
    cols = [Fraction(k, 4) for k in range(-4 * window, 4 * window + 1)]
    rows: dict = {}
    entries = []
    for j, q in enumerate(cols):
        for e, ce in c.items():
            key = (e + q) / 2
            entries.append((rows.setdefault(key, len(rows)), j, float(ce)))
        entries.append((rows.setdefault(q, len(rows)), j, -float(rho)))
    a = np.zeros((len(rows), len(cols)))
    for i, j, v in entries:
        a[i, j] += v
    sv = np.linalg.svd(a, compute_uv=False)
    gap = sv[-2] if len(sv) >= 2 else sv[-1]
    b_norm = math.sqrt(sum(float(v) ** 2 for v in b.values()))
    return len(cols) * UNIT_ROUNDOFF * float(sv[0] / gap) * b_norm**2


# -- eigenvalue curves ------------------------------------------------------------------


def doubling_closed_form(a0: float, n: int):
    """cos(2^n arccos a0) in mpmath, for |a0| <= 1."""
    with mpmath.workdps(MP_DIGITS):
        return mpmath.cos(mpmath.mpf(2) ** n * mpmath.acos(mpmath.mpf(a0)))


def iteration_tolerance(a0: float, n: int) -> float:
    """Rounding bound after n steps of a -> 2a^2 - 1 in floating point.

    Step k commits an error of at most 2u (2 a_k^2 + 1) (one multiply-add
    chain), and every later step multiplies an error by |f'(a)| = |4 a|.
    The bound sums each step's error times the derivative product after it,
    along the exact trajectory, and doubles the result for the first-order
    terms it drops.
    """
    a = [float(doubling_closed_form(a0, k)) for k in range(n + 1)]
    bound = 0.0
    for k in range(1, n + 1):
        err = 2.0 * UNIT_ROUNDOFF * (2.0 * a[k - 1] ** 2 + 1.0)
        for j in range(k, n):
            err *= abs(4.0 * a[j])
        bound += err
    return 2.0 * bound


def closed_form_tolerance(a0: float, n: int) -> float:
    """Bound for cos(2^n acos a0) evaluated in double precision.

    acos and cos are each within about one ulp; the acos error is scaled by
    the exact factor 2^n before cos sees it, and cos has slope at most 1.
    """
    return 4.0 * UNIT_ROUNDOFF * (1.0 + 2.0**n * math.acos(a0))


# -- grid application by hand -----------------------------------------------------------


def apply_on_lattice(terms, values, resolution: int, lo: int):
    """(sum_t c_t D^b_t T^a_t f)(x) on the lattice x = lo + k 2^-resolution.

    terms: (coeff, beta, alpha) with integer beta >= 0 and alpha on the
    lattice.  Works point by point in exact rationals: the source point of
    output x is y = 2^beta x + alpha, its index (y - lo) 2^resolution, and a
    source outside the window reads as zero.
    """
    scale = 1 << resolution
    n = len(values)
    out = [0j] * n
    for coeff, beta, alpha in terms:
        alpha = Fraction(alpha)
        for i in range(n):
            x = lo + Fraction(i, scale)
            idx = (2**beta * x + alpha - lo) * scale
            if idx.denominator != 1:
                raise ValueError(f"source point of x = {x} is off the lattice")
            k = int(idx)
            if 0 <= k < n:
                out[i] += coeff * values[k]
    return out

"""Scaling functions and wavelets from two-scale coefficient masks.

A coefficient mask {C_k} defines the symbol g(T) = sum_k C_k T^{-k} and the
two-scale operator D g(T); its fixed functions are scaling functions.  This
module checks mask admissibility, runs the cascade fixed-point iteration on
a grid, builds wavelets from a scaling function, and constructs scaling
functions directly as high-order difference words applied to a smooth seed
(the limit-sequence route, which never iterates).

The dilation acts as (D^beta f)(x) = f(2^beta x), with no amplitude factor,
so sum C_k = 2 preserves mass exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from . import _numpy as np
from .gridfn import (
    GridFunction,
    GridResolutionError,
    _index_units,
    _lattice_points,
    _sample_count,
    apply_op_grid,
)
from .laurent import Dyadic, EvaluationOverflowError, LaurentPoly
from .opalgebra import OpExpr
from .qdeform import phase_index_minus, w_minus

DIVERGENCE_L2_LIMIT = 1e6
SAMPLE_BLOCK = 1 << 13  # samples (terms x points) per block of the deformed word's sums
MAX_WORD_ORDER = 20  # 2^n pairs per point; at 768 points n = 17 takes 0.7 s, n = 20 5.5 s


class CascadeDivergenceError(RuntimeError):
    pass


class WordTooLargeError(ValueError):
    """A deformed word order above MAX_WORD_ORDER: (2 W-(s))^n has 2^n terms."""


def _to_dyadic(step) -> Dyadic:
    if isinstance(step, Dyadic):
        return step
    if isinstance(step, int):
        return Dyadic(step)
    d = Dyadic.from_float(float(step))
    if d is None:
        raise ValueError(f"mask step {step!r} is not a dyadic rational")
    return d


@dataclass(frozen=True)
class ScalingSystem:
    """A two-scale coefficient mask: coeffs maps translation steps (dyadic
    rationals) to real coefficients C_k."""

    name: str
    coeffs: dict

    def __post_init__(self):
        object.__setattr__(
            self,
            "coeffs",
            {_to_dyadic(k): float(c) for k, c in self.coeffs.items()},
        )
        if not self.coeffs:
            raise ValueError("coefficient mask is empty")

    @property
    def g(self) -> LaurentPoly:
        """Mask symbol sum_k C_k T^{-k}."""
        return LaurentPoly.from_dict({-k: c for k, c in self.coeffs.items()})

    @property
    def finest_step(self) -> Dyadic:
        nonzero = [k for k in self.coeffs if k.num != 0]
        if not nonzero:
            return Dyadic(1)
        return min((abs(float(k)), k) for k in nonzero)[1]

    def two_scale_op(self) -> OpExpr:
        """D g(T), the operator whose fixed functions this mask defines."""
        return OpExpr.dilation(1) * OpExpr.from_laurent(self.g)


def haar_system() -> ScalingSystem:
    return ScalingSystem("haar", {0: 1.0, 1: 1.0})


def b2_system() -> ScalingSystem:
    """Piecewise-linear (hat) mask at half-integer steps: {1/2, 1, 1/2}."""
    return ScalingSystem("b2", {0: 0.5, Dyadic(1, 1): 1.0, 1: 0.5})


# -- exact profiles -------------------------------------------------------------


def box_profile(x):
    """Indicator of [0, 1), right-continuous."""
    x = np.asarray(x, dtype=float)
    return np.where((x >= 0.0) & (x < 1.0), 1.0, 0.0)


def box_midpoint_profile(x):
    """Box with the midpoint value 1/2 at both jumps; the pointwise limit
    of the odd-seed difference sequences."""
    x = np.asarray(x, dtype=float)
    inner = np.where((x > 0.0) & (x < 1.0), 1.0, 0.0)
    inner += np.where((x == 0.0) | (x == 1.0), 0.5, 0.0)
    return inner


def hat_profile(x):
    """Peak-2 hat on [0, 1]: 2 - |4x - 2| clipped at zero; exact on any
    dyadic lattice."""
    x = np.asarray(x, dtype=float)
    t = np.multiply(4.0, x, out=np.empty_like(x))  # the one array written; x is only read
    t -= 2.0
    np.abs(t, out=t)
    np.subtract(2.0, t, out=t)
    return np.maximum(0.0, t, out=t)


def box_grid(resolution: int, window: tuple[int, int] = (-1, 2)) -> GridFunction:
    return GridFunction.from_callable(box_profile, resolution, window)


def hat_grid(resolution: int, window: tuple[int, int] = (-1, 2)) -> GridFunction:
    return GridFunction.from_callable(hat_profile, resolution, window)


# -- presets ----------------------------------------------------------------------


@dataclass(frozen=True)
class Preset:
    """A worked example: a mask with its exact fixed profile and its limit word."""

    system: ScalingSystem
    profile: Callable  # the mask's exact fixed profile
    word: LaurentPoly  # the mask's detail symbol b(T), as `funceq.solve_refinement` finds it
    zero_order: int  # m, the order of b's zero at T = 1
    target: Callable  # the profile the word converges to on a seed
    seeds: tuple[str, ...]  # the seed flavors it takes; the first is the default


PRESETS = {
    "haar": Preset(haar_system(), box_profile, LaurentPoly.from_dict({0: 1.0, -1: -1.0}), 1,
                   box_midpoint_profile, ("arctan", "tanh")),
    "b2": Preset(b2_system(), hat_profile,
                 LaurentPoly.from_dict({0: 1.0, Dyadic(-1, 1): -2.0, -1: 1.0}), 2,
                 hat_profile, ("tri",)),
}


def _preset(name: str) -> Preset:
    if name not in PRESETS:
        raise ValueError(f"preset must be one of {sorted(PRESETS)}, got {name!r}")
    return PRESETS[name]


# -- admissibility ---------------------------------------------------------------


def check_admissibility(sys: ScalingSystem) -> dict:
    """Coefficient sum and shifted overlaps of the mask.

    The overlap target is sum_k C_k C_{k+2l} = 2*delta_{l,0}: the variant
    normalized to delta_{l,0} alone fails for the box mask {1, 1} whose
    squared sum is 2, so the doubled form is what the sum rule
    sum C_k = 2 is consistent with.  The report records this choice.
    """
    coeffs = sys.coeffs
    total = math.fsum(coeffs.values())
    steps = sorted(coeffs, key=float)
    span = float(steps[-1]) - float(steps[0])
    max_l = max(1, int(math.ceil(span / 2.0)))
    overlaps = {}
    for l in range(-max_l, max_l + 1):
        shift = Dyadic(2 * l)
        overlaps[str(l)] = math.fsum(
            c * coeffs[k + shift] for k, c in coeffs.items() if k + shift in coeffs
        )
    return {
        "system": sys.name,
        "coefficient_sum": total,
        "overlaps": overlaps,
    }


# -- cascade iteration ------------------------------------------------------------


@dataclass(frozen=True)
class CascadeResult:
    phi: GridFunction
    iterations: int
    residual: float
    history: tuple


def _l2_in_place(v: np.ndarray, step: float) -> float:
    """sqrt(step * sum |v|^2) of an array the caller gives up: a real v is squared in
    its own memory (v * v has the bits of |v| ** 2), a complex v in |v|'s."""
    if np.iscomplexobj(v):
        v = np.abs(v)
    v *= v
    return math.sqrt(step * float(np.sum(v)))


def _l2_norm(f: GridFunction) -> float:
    return _l2_in_place(np.abs(f.values), f.step)


def _check_alignment(sys: ScalingSystem, resolution: int) -> None:
    for k in sys.coeffs:
        if not k.scaled_pow2(resolution).is_integer():
            raise GridResolutionError(
                f"non-aligned step: mask step {k} is off the 2^-{resolution} lattice"
            )


def cascade(sys: ScalingSystem, start: GridFunction, iters: int) -> CascadeResult:
    """Iterate phi <- D g(T) phi and record convergence.

    No renormalization is applied: with sum C_k = 2 the grid integral is
    conserved, so amplitude errors in the start function persist instead of
    being washed out (2*box stays 2*box).  The stored residual is the
    max-norm of one further application minus phi, so recomputing it from
    the returned phi reproduces it.
    """
    if iters < 0:
        raise ValueError("iteration count must be nonnegative")
    _check_alignment(sys, start.resolution)
    op = sys.two_scale_op()
    # start's samples are only read and never returned; each difference below is
    # formed in an array made here
    phi = start if iters else GridFunction(start.resolution, start.window, start.values.copy())
    history = []
    for i in range(iters):
        nxt = apply_op_grid(op, phi)
        history.append(_l2_in_place(np.subtract(nxt.values, phi.values), phi.step))
        phi = nxt
        norm = _l2_norm(phi)
        if norm > DIVERGENCE_L2_LIMIT:
            raise CascadeDivergenceError(
                f"cascade divergence: L2 norm {norm:.3e} after {i + 1} iterations"
            )
    last = apply_op_grid(op, phi).values
    last -= phi.values
    gap = np.abs(last) if np.iscomplexobj(last) else np.abs(last, out=last)
    return CascadeResult(
        phi=phi, iterations=iters, residual=float(np.max(gap)), history=tuple(history)
    )


# -- wavelets ---------------------------------------------------------------------


def _alternate_reflect(g: LaurentPoly) -> LaurentPoly:
    """g(-T^{-1}): T^e -> (-1)^e T^{-e}, defined only for integer exponents."""
    out = {}
    for exp, coeff in g.terms():
        if not (exp.is_exact and exp.dyadic.is_integer()):
            raise ValueError(
                "literal wavelet form needs integer mask steps; "
                "use the canonical form for half-step masks"
            )
        e = exp.dyadic.num
        out[-e] = out.get(-e, 0.0) + coeff * (-1.0 if e % 2 else 1.0)
    return LaurentPoly.from_dict(out)


def _alternating_mask(sys: ScalingSystem) -> LaurentPoly:
    """sum_k (-1)^{k/h} C_k T^{-k} with h the finest mask step."""
    h = float(sys.finest_step)
    out = {}
    for k, c in sys.coeffs.items():
        ratio = float(k) / h
        m = round(ratio)
        if abs(ratio - m) > 1e-9:
            raise ValueError(f"mask step {k} is not a multiple of the finest step")
        out[-k] = c * (-1.0 if m % 2 else 1.0)
    return LaurentPoly.from_dict(out)


def _output_window(expr: OpExpr, f: GridFunction) -> tuple[int, int]:
    """Window on which expr f can be nonzero, given f's support window."""
    lo, hi = f.window
    bounds = []
    for t in expr.terms():
        scale = 2.0 ** t.beta.value
        a = t.alpha.value
        bounds.append(((lo - a) / scale, (hi - a) / scale))
    w_lo = int(math.floor(min(b[0] for b in bounds)))
    w_hi = int(math.ceil(max(b[1] for b in bounds)))
    return (w_lo, max(w_hi, w_lo + 1))


def wavelet_from_scaling(
    sys: ScalingSystem, phi: GridFunction, form: str = "literal"
) -> GridFunction:
    """Mother wavelet from a scaling function.

    form="literal" applies -T^{-1} D g(-T^{-1}), which needs integer mask
    steps; form="canonical" applies D times the alternating mask
    sum (-1)^{k/h} C_k T^{-k}, which also covers half-step masks and, for
    the box mask, is the usual difference wavelet D(1 - T^{-1}) phi.
    The two differ by an integer translation for the box mask.
    """
    if form == "literal":
        sub = _alternate_reflect(sys.g)
        op = (
            OpExpr.scalar(-1.0)
            * OpExpr.translation(-1)
            * OpExpr.dilation(1)
            * OpExpr.from_laurent(sub)
        )
    elif form == "canonical":
        op = OpExpr.dilation(1) * OpExpr.from_laurent(_alternating_mask(sys))
    else:
        raise ValueError(f"form must be 'literal' or 'canonical', got {form!r}")
    return apply_op_grid(
        op, phi, out_resolution=phi.resolution + 1, out_window=_output_window(op, phi)
    )


# -- limit sequences ---------------------------------------------------------------


# the seeds take a float array y, read it only, and write into arrays of their own


def _seed_arctan(y):
    t = 2.0 * y
    np.arctan(t, out=t)
    t /= np.pi
    return t


def _seed_tanh(y):
    t = 2.0 * y
    np.tanh(t, out=t)
    t *= 0.5
    return t


def _seed_tri(y):
    """(2y / pi) arctan(2y) - log1p(4y^2) / (2 pi), in two arrays."""
    t = 2.0 * y
    u = np.arctan(t)
    t /= np.pi
    t *= u
    np.multiply(4.0, y, out=u)
    u *= y
    np.log1p(u, out=u)
    u /= 2.0 * np.pi
    t -= u
    return t


_SEEDS = {"arctan": _seed_arctan, "tanh": _seed_tanh, "tri": _seed_tri}


def limit_build(
    preset: str,
    delta: str,
    n: int,
    resolution: int,
    window: tuple[int, int] = (-1, 2),
) -> GridFunction:
    """Scaling function as one difference word on a dilated smooth seed.

    The preset's word b(T) = sum_k b_k T^{e_k} times D^n, applied to the
    seed and divided by 2^((m-1)(n-1)), m the order of b's zero at T = 1:
    sum_k b_k seed(2^n (x + e_k)) / 2^((m-1)(n-1)).  haar: (1 - T^{-1}) D^n
    on an odd sigmoid seed (arctan or tanh flavor) converges to the box with
    midpoint values at its jumps; b2: (1 - 2T^{-1/2} + T^{-1}) D^n on the
    even kink seed converges to the peak-2 hat.  Evaluated in closed form,
    with no grid iteration: the seed is sampled once, on the lattice fine
    enough for the output points and every step e_k, and each term reads a
    strided slice of it, since T^{e_k} is an index shift there.
    """
    p = _preset(preset)
    if delta not in p.seeds:
        raise ValueError(f"delta must be one of {list(p.seeds)} for {preset!r}, got {delta!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 60:
        raise EvaluationOverflowError(
            f"amplitude compensation overflows past n = 60, got {n}"
        )
    n_out = _sample_count(resolution, window)  # only the output window is held to MAX_SAMPLES
    terms = p.word.terms()
    fine = max(resolution, *(e.dyadic.log2_den for e, _ in terms))
    shifts = [_index_units(e, fine, "word step") for e, _ in terms]
    first, stride = min(shifts), 1 << (fine - resolution)
    span = (n_out - 1) * stride + 1
    # y = 2^n (lo + j 2^-fine + min_k e_k); output i of term k reads j = i stride + shift_k - first.
    # Every y is an exact dyadic, so it has the bits of 2^n (x_i + e_k) formed per term
    y = np.arange(span + max(shifts) - first, dtype=float)
    y *= 2.0**-fine
    y += window[0] + first * 2.0**-fine
    y *= 2.0**n
    seeded, vals, term = _SEEDS[delta](y), None, None
    for shift, (_, c) in zip(shifts, terms):
        picked = seeded[shift - first : shift - first + span : stride]
        if vals is None:  # summed in term order from the first: 0 + (-0.0) loses a zero's sign
            vals = np.multiply(picked, c.real)
        else:
            term = np.multiply(picked, c.real, out=term)
            vals += term
    vals /= 2.0 ** ((p.zero_order - 1) * (n - 1))
    return GridFunction(resolution, window, vals)


def limit_build_report(
    preset: str,
    delta: str,
    n_values: tuple[int, ...],
    resolution: int,
    window: tuple[int, int] = (-1, 2),
) -> dict:
    """L1 and max distances to the exact target for each word order n,
    plus whether the L1 error strictly decreases along n_values."""
    target = GridFunction.from_callable(_preset(preset).target, resolution, window)
    errors = {}
    for n in n_values:
        f = limit_build(preset, delta, n, resolution, window)
        gap = np.subtract(f.values, target.values)
        np.abs(gap, out=gap)
        errors[n] = {"l1": float(gap.sum() * f.step), "max": float(gap.max())}
    l1s = [errors[n]["l1"] for n in n_values]
    return {
        "preset": preset,
        "delta": delta,
        "resolution": resolution,
        "errors": errors,
        "monotone_l1": all(a > b for a, b in zip(l1s, l1s[1:])),
    }


def algebraic_form_check(n: int) -> dict:
    """Measure (1 - T^{-1}) D^n - (1 - T^{-2^-n}) (2 W-)^n in the normal form.

    The right side is the halving-word form: (2 W-)^n expands to D^n times
    the full 2^n-term translation sum, so the identity is the operator
    statement behind the limit-sequence construction.  The report carries
    the residual of the subtraction and the word's term count.
    """
    if not 0 <= n <= 8:
        raise ValueError(f"n must be within [0, 8], got {n}")
    lhs = (OpExpr.identity() - OpExpr.translation(-1)) * OpExpr.dilation(n)
    word = (2.0 * w_minus(1.0)) ** n
    rhs = (OpExpr.identity() - OpExpr.translation(Dyadic(-1, n))) * word
    residual = (lhs - rhs).max_abs_coeff()
    return {
        "n": n,
        "residual": residual,
        "word_terms": len(word),
    }


# -- the deformed family -------------------------------------------------------------


def _deformed_columns(s: float, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Coefficients c, shifts a and phase index M of (2 W-(s))^n =
    P^M D^{ns} sum_j c_j T^{a_j}, by the Bernoulli-convolution recursion:
    composing with P^mu D^s (1 + T^-s) on the right maps c_j T^{a_j} to
    c_j e^{i mu a_j} (T^{2^s a_j} + T^{2^s a_j - s}) and adds 2^{ks} mu to M."""
    mu, scale = phase_index_minus(s), 2.0**s
    c, a, m = np.ones(1, dtype=complex), np.zeros(1), 0.0
    for k in range(n):
        c, a = c * np.exp(1j * mu * a), scale * a
        c, a = np.concatenate((c, c)), np.concatenate((a, a - s))
        m += 2.0 ** (k * s) * mu
    return c, a, m


def _deformed_raw(s: float, n: int, resolution: int, window: tuple[int, int]) -> GridFunction:
    """The unnormalized profile (1 - T^{-2^-n}) (2 W-(s))^n seed.  For 0 < s < 1
    the word is P^M D^B sum_j c_j T^{a_j}, and with h = 2^-n, d = 2^B h,
    u = 2(2^B x + a_j), v = u - 2d each pair c_j (T^{a_j} - e^{-iMh} T^{a_j - d})
    is sampled as c_j (arctan2(2d, 1 + uv) + (1 - e^{-iMh}) arctan v): real dot
    products on the parts of c over blocks of at most SAMPLE_BLOCK samples.  u and
    v are formed by exact doubling: uv and v carry the bits of 4y(y - d) and 2(y - d)
    with y = 2^B x + a_j."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_WORD_ORDER:  # refused before anything is built or sampled
        raise WordTooLargeError(f"word order {n} is above MAX_WORD_ORDER = {MAX_WORD_ORDER}")
    xs = _lattice_points(resolution, window)
    if 0.0 < s < 1.0:
        (c, a, m), b, h = _deformed_columns(s, n), n * s, 2.0**-n
        d, parts = (2.0**b) * h, np.stack((c.real, c.imag))
        pair, tail = np.zeros((2, xs.size)), np.zeros((2, xs.size))
        step = max(1, SAMPLE_BLOCK // xs.size)
        two_x, two_a = 2.0 * (2.0**b) * xs, 2.0 * a
        # numpy's arctan2 takes twice as long on a broadcast scalar as on an array
        two_d = np.full((min(step, len(a)), xs.size), 2.0 * d)
        for i in range(0, len(a), step):
            rows, u = parts[:, i : i + step], two_x + two_a[i : i + step, None]
            num = two_d[: len(u)]
            v = u - num
            u *= v  # 1 + uv, in place
            u += 1.0
            pair += rows @ np.arctan2(num, u)
            tail += rows @ np.arctan(v)
        total = pair[0] + 1j * pair[1] - np.expm1(-1j * m * h) * (tail[0] + 1j * tail[1])
        vals = (1.0 / np.pi) * np.exp(1j * m * xs) * total
        return GridFunction(resolution, window, vals)
    if s == 1.0:  # the word telescopes to (1 - T^-1) D^n (`algebraic_form_check`)
        return GridFunction(resolution, window,
                            limit_build("haar", "arctan", n, resolution, window).values + 0j)
    # 2 W-(0) = 2 P^-1: (1 - T^-h) 2^n P^-n = 2^n P^-n - 2^n e^{inh} P^-n T^-h
    h, e = 2.0**-n, np.exp(-1j * n * xs)
    vals = (2**n * (_seed_arctan(xs) * e)
            - 2**n * cmath.exp(1j * n * h) * (_seed_arctan(xs - h) * e))
    return GridFunction(resolution, window, vals)


def _unit_integral(raw: GridFunction) -> GridFunction:
    if (norm := _l2_norm(raw)) > DIVERGENCE_L2_LIMIT:
        raise CascadeDivergenceError(f"cascade divergence: L2 norm {norm:.3e}")
    if abs(mass := raw.integral()) < 1e-12:
        raise ValueError("degenerate normalization: integral is numerically zero")
    return GridFunction(raw.resolution, raw.window, raw.values / mass)


def deformed_scaling(s: float, n: int, resolution: int) -> GridFunction:
    """Exploratory deformation: the limit-sequence word with 2 W-(s) in
    place of the two-scale operator, normalized to unit integral.

    op = (1 - T^{-2^-n}) (2 W-(s))^n, sampled on the arctan seed pointwise
    (the word's dilation powers are not grid-aligned for generic s): from
    its factored columns for 0 < s < 1, and in closed form at the endpoints.
    At s = 1 the word telescopes to the box construction (1 - T^-1) D^n of
    `limit_build`; at s = 0 it is two phase terms, reported without any
    claim.  The word is linear, so normalizing once at the end equals
    normalizing after every step.
    """
    return _unit_integral(_deformed_raw(s, n, resolution, (-1, 2)))


def deformed_scaling_report(s_values: tuple[float, ...], n: int, resolution: int) -> dict:
    """L1 distance of each deformed profile to the exact box.  Only the
    s = 1 endpoint carries an accuracy claim; the rest is survey data.  Each
    row also carries the raw mass |integral raw| the normalization divides
    by, and its cancellation ratio integral |raw| / |integral raw|."""
    target = GridFunction.from_callable(box_midpoint_profile, resolution, (-1, 2))
    rows = []
    for s in s_values:
        raw = _deformed_raw(s, n, resolution, (-1, 2))
        f, mass = _unit_integral(raw), abs(raw.integral())
        rows.append({"s": s, "l1_to_box": f.l1_distance(target),
                     "integral_error": abs(f.integral() - 1.0), "raw_mass": mass,
                     "mass_cancellation": float(np.abs(raw.values).sum() * raw.step) / mass})
    return {"n": n, "resolution": resolution, "rows": rows}

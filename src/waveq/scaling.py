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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gridfn import (
    GridFunction,
    GridResolutionError,
    _lattice_points,
    apply_op_grid,
    sample_op_applied,
)
from .laurent import Dyadic, EvaluationOverflowError, LaurentPoly
from .opalgebra import OpExpr
from .qdeform import phase_index_minus, w_minus

DIVERGENCE_L2_LIMIT = 1e6
SAMPLE_BLOCK = 1 << 13  # samples (terms x points) per block of the deformed word's sums
MAX_WORD_ORDER = 20  # 2^n pairs per point; at 768 points n = 17 takes 1.7 s, n = 20 12 s


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
    """A two-scale coefficient mask with its wavelet shift.

    coeffs maps translation steps (dyadic rationals) to real coefficients
    C_k; lam is the odd integer translation used by the literal wavelet
    formula.
    """

    name: str
    coeffs: dict
    lam: int = 1

    def __post_init__(self):
        if self.lam % 2 != 1:
            raise ValueError(f"wavelet shift must be odd, got {self.lam}")
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
    return inner + np.where((x == 0.0) | (x == 1.0), 0.5, 0.0)


def hat_profile(x):
    """Peak-2 hat on [0, 1]: 2 - |4x - 2| clipped at zero; exact on any
    dyadic lattice."""
    x = np.asarray(x, dtype=float)
    return np.maximum(0.0, 2.0 - np.abs(4.0 * x - 2.0))


def box_grid(resolution: int, window: tuple[int, int] = (-1, 2)) -> GridFunction:
    return GridFunction.from_callable(box_profile, resolution, window)


def hat_grid(resolution: int, window: tuple[int, int] = (-1, 2)) -> GridFunction:
    return GridFunction.from_callable(hat_profile, resolution, window)


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
        "normalization_note": (
            "overlap target is 2*delta_{l,0}; the delta_{l,0}-normalized "
            "variant is inconsistent with the box mask {1, 1} and with "
            "sum C_k = 2, so the doubled form is used and the deviation "
            "recorded here"
        ),
    }


# -- cascade iteration ------------------------------------------------------------


@dataclass(frozen=True)
class CascadeResult:
    phi: GridFunction
    iterations: int
    residual: float
    history: tuple


def _l2_norm(f: GridFunction) -> float:
    step = 2.0 ** -f.resolution
    return math.sqrt(step * float(np.sum(np.abs(f.values) ** 2)))


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
    phi = start
    history = []
    for i in range(iters):
        nxt = apply_op_grid(op, phi)
        history.append(_l2_norm(nxt - phi))
        phi = nxt
        norm = _l2_norm(phi)
        if norm > DIVERGENCE_L2_LIMIT:
            raise CascadeDivergenceError(
                f"cascade divergence: L2 norm {norm:.3e} after {i + 1} iterations"
            )
    final_residual = float(np.max(np.abs((apply_op_grid(op, phi) - phi).values)))
    return CascadeResult(
        phi=phi, iterations=iters, residual=final_residual, history=tuple(history)
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

    form="literal" applies -T^{-lam} D g(-T^{-1}), which needs integer mask
    steps; form="canonical" applies D times the alternating mask
    sum (-1)^{k/h} C_k T^{-k}, which also covers half-step masks and, for
    the box mask, is the usual difference wavelet D(1 - T^{-1}) phi.
    The two differ by an integer translation for the box mask.
    """
    if form == "literal":
        sub = _alternate_reflect(sys.g)
        op = (
            OpExpr.scalar(-1.0)
            * OpExpr.translation(-sys.lam)
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


def _seed_arctan(y):
    return np.arctan(2.0 * y) / np.pi


def _seed_tanh(y):
    return 0.5 * np.tanh(2.0 * y)


def _seed_tri(y):
    y = np.asarray(y, dtype=float)
    return (2.0 * y / np.pi) * np.arctan(2.0 * y) - np.log1p(4.0 * y * y) / (
        2.0 * np.pi
    )


_SEEDS = {"arctan": _seed_arctan, "tanh": _seed_tanh, "tri": _seed_tri}
_PRESET_SEEDS = {"haar": ("arctan", "tanh"), "b2": ("tri",)}


def limit_build(
    preset: str,
    delta: str,
    n: int,
    resolution: int,
    window: tuple[int, int] = (-1, 2),
) -> GridFunction:
    """Scaling function as one difference word on a dilated smooth seed.

    haar: (1 - T^{-1}) D^n applied to an odd sigmoid seed (arctan or tanh
    flavor), converging to the box with midpoint values at its jumps.
    b2: (1 - 2T^{-1/2} + T^{-1}) D^n applied to the even kink seed, with
    the amplitude divided by 2^{n-1}, converging to the peak-2 hat.
    Evaluated in closed form on the target lattice; no grid iteration.
    """
    if preset not in _PRESET_SEEDS:
        raise ValueError(f"preset must be one of {sorted(_PRESET_SEEDS)}, got {preset!r}")
    if delta not in _SEEDS:
        raise ValueError(f"delta must be one of {sorted(_SEEDS)}, got {delta!r}")
    if delta not in _PRESET_SEEDS[preset]:
        raise ValueError(f"delta preset {delta!r} is not available for {preset!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 60:
        raise EvaluationOverflowError(
            f"amplitude compensation overflows past n = 60, got {n}"
        )
    seed = _SEEDS[delta]
    scale = 2.0**n
    xs = _lattice_points(resolution, window)
    if preset == "haar":
        vals = seed(scale * xs) - seed(scale * (xs - 1.0))
    else:
        comp = 2.0 ** (n - 1)
        vals = (
            seed(scale * xs) - 2.0 * seed(scale * (xs - 0.5)) + seed(scale * (xs - 1.0))
        ) / comp
    return GridFunction(resolution, window, vals)


def limit_oracle(preset: str) -> Callable:
    if preset == "haar":
        return box_midpoint_profile
    if preset == "b2":
        return hat_profile
    raise ValueError(f"no oracle for preset {preset!r}")


def limit_build_report(
    preset: str,
    delta: str,
    n_values: tuple[int, ...],
    resolution: int,
    window: tuple[int, int] = (-1, 2),
) -> dict:
    """L1 and max distances to the exact target for each word order n,
    plus whether the L1 error strictly decreases along n_values."""
    target = GridFunction.from_callable(limit_oracle(preset), resolution, window)
    errors = {}
    for n in n_values:
        f = limit_build(preset, delta, n, resolution, window)
        gap = np.abs(f.values - target.values)
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
    products on the parts of c over blocks of at most SAMPLE_BLOCK samples."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_WORD_ORDER:  # refused before anything is built or sampled
        raise WordTooLargeError(f"word order {n} is above MAX_WORD_ORDER = {MAX_WORD_ORDER}")
    xs = _lattice_points(resolution, window)
    if 0.0 < s < 1.0:
        (c, a, m), b, h = _deformed_columns(s, n), n * s, 2.0**-n
        scaled, d, parts = (2.0**b) * xs, (2.0**b) * h, np.stack((c.real, c.imag))
        pair, tail = np.zeros((2, xs.size)), np.zeros((2, xs.size))
        step = max(1, SAMPLE_BLOCK // xs.size)
        for i in range(0, len(a), step):
            rows, y = parts[:, i : i + step], scaled + a[i : i + step, None]
            pair += rows @ np.arctan2(2.0 * d, 1.0 + 4.0 * y * (y - d))  # uv = 4y(y - d)
            tail += rows @ np.arctan(2.0 * (y - d))
        total = pair[0] + 1j * pair[1] - np.expm1(-1j * m * h) * (tail[0] + 1j * tail[1])
        vals = (1.0 / np.pi) * np.exp(1j * m * xs) * total
        return GridFunction(resolution, window, vals)
    if s == 1.0:  # the word telescopes (`algebraic_form_check` measures a zero residual)
        op = (OpExpr.identity() - OpExpr.translation(-1)) * OpExpr.dilation(n)
    else:  # 2 W-(0) = 2 P^-1 is one term
        op = (OpExpr.identity() - OpExpr.translation(Dyadic(-1, n))) * (2.0 * w_minus(s)) ** n
    return GridFunction(resolution, window, sample_op_applied(op, _seed_arctan, xs))


def _unit_integral(raw: GridFunction) -> GridFunction:
    if (norm := _l2_norm(raw)) > DIVERGENCE_L2_LIMIT:
        raise CascadeDivergenceError(f"cascade divergence: L2 norm {norm:.3e}")
    if abs(mass := raw.integral()) < 1e-12:
        raise ValueError("degenerate normalization: integral is numerically zero")
    return GridFunction(raw.resolution, raw.window, raw.values / mass)


def deformed_scaling(
    s: float,
    n: int,
    resolution: int,
    window: tuple[int, int] = (-1, 2),
) -> GridFunction:
    """Exploratory deformation: the limit-sequence word with 2 W-(s) in
    place of the two-scale operator, normalized to unit integral.

    op = (1 - T^{-2^-n}) (2 W-(s))^n, applied to the arctan seed by direct
    sampling (the word's dilation powers are not grid-aligned for generic
    s).  The word is linear, so normalizing once at the end equals
    normalizing after every step; s = 1 reproduces the box construction,
    while the s = 0 endpoint degenerates to pure phases and is reported
    without any claim.
    """
    return _unit_integral(_deformed_raw(s, n, resolution, window))


def deformed_scaling_report(
    s_values: tuple[float, ...],
    n: int,
    resolution: int,
    window: tuple[int, int] = (-1, 2),
) -> dict:
    """L1 distance of each deformed profile to the exact box.  Only the
    s = 1 endpoint carries an accuracy claim; the rest is survey data.  Each
    row also carries the raw mass |integral raw| the normalization divides
    by, and its cancellation ratio integral |raw| / |integral raw|."""
    target = GridFunction.from_callable(box_midpoint_profile, resolution, window)
    rows = []
    for s in s_values:
        raw = _deformed_raw(s, n, resolution, window)
        f, mass = _unit_integral(raw), abs(raw.integral())
        rows.append({"s": s, "l1_to_box": f.l1_distance(target),
                     "integral_error": abs(f.integral() - 1.0), "raw_mass": mass,
                     "mass_cancellation": float(np.abs(raw.values).sum() * raw.step) / mass})
    return {"n": n, "resolution": resolution, "rows": rows}


# -- wavelet self-similarity report ----------------------------------------------------


def wavelet_selfequation_report(resolution: int = 7) -> dict:
    """Residuals of the claimed self-similarity of the hat-mask wavelet.

    The stated relation reads psi = D (1 + 2T^{-1/2} + T^2)^2 psi; the T^2
    term breaks the symmetry the surrounding construction has, so the
    T^{-1} variant is measured alongside it.  Both residuals are reported;
    neither is asserted anywhere.
    """
    sys = b2_system()
    phi = hat_grid(resolution)
    psi = wavelet_from_scaling(sys, phi, form="canonical")
    half = Dyadic(1, 1)
    printed = LaurentPoly.from_dict({0: 1.0, -half: 2.0, 2: 1.0})
    symmetric = LaurentPoly.from_dict({0: 1.0, -half: 2.0, -1: 1.0})
    report = {"resolution": resolution, "note": "residuals reported, not asserted"}
    for label, mask in (("printed", printed), ("symmetric", symmetric)):
        op = OpExpr.dilation(1) * OpExpr.from_laurent(mask * mask)
        rhs = apply_op_grid(
            op, psi, out_resolution=psi.resolution, out_window=psi.window
        )
        diff = rhs - psi
        report[f"{label}_residual_max"] = float(np.max(np.abs(diff.values)))
        report[f"{label}_residual_l1"] = diff.l1_distance(
            GridFunction.zeros(psi.resolution, psi.window)
        )
    return report

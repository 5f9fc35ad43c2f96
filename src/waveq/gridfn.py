"""Concrete function representations the operator algebra can act on.

Two representations cover everything downstream:

* `GridFunction`: samples on the dyadic lattice x = lo + k/2^J over an
  integer window [lo, hi), float64 when the data is real and complex128
  when it is complex.  Operator application is exact index arithmetic;
  a source point that falls off the lattice raises instead of interpolating.
* `ExpSum`: finite sums of a*e^(rate*x), closed under the full algebra
  including non-integer dilation powers, which grids cannot represent;
  it shares the normal form of LaurentPoly and OpExpr.

Every operator acts with (D^beta f)(x) = f(2^beta x): the weight of a term
is its coefficient.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Iterable

from . import _numpy as np
from .laurent import Exponent, ExponentRangeError, _exp, _merged, _NormalForm, _own_arithmetic
from .opalgebra import OpExpr

MAX_SAMPLES = 1 << 22  # 32 MiB a float64 lattice; `check` samples 3 * 2^18 = 786,432 points
SCRATCH_BYTES = 1 << 16  # `apply_op_grid`'s block; under glibc's 128 KiB mmap threshold, so it is
                         # carved from the heap and does not fault pages in on every call


class GridResolutionError(ValueError):
    """An operator asked for samples that are not on the source lattice."""


class GridMismatchError(ValueError):
    """Two grid functions live on different lattices or windows."""


class GridTooLargeError(ValueError):
    """A lattice with more than MAX_SAMPLES samples, refused before it is allocated."""


class NonFiniteWeightError(ValueError):
    """An operator term has a coefficient (its weight) or phase rate that is not finite."""


def _index_units(e: Exponent, resolution: int, what: str) -> int:
    """Convert a translation amount to lattice index units, exactly."""
    if e.is_exact:
        scaled = e.dyadic.scaled_pow2(resolution)
        if not scaled.is_integer():
            raise GridResolutionError(
                f"{what} {e.dyadic} is finer than the 2^-{resolution} lattice"
            )
        return scaled.num
    idx = e.value * (1 << resolution)
    k = round(idx)
    if abs(idx - k) > 1e-9:
        raise GridResolutionError(
            f"{what} {e.value!r} is not on the 2^-{resolution} lattice"
        )
    return int(k)


def _sample_count(resolution: int, window: tuple[int, int]) -> int:
    """(hi - lo) 2^resolution, once the window and the resolution are checked."""
    lo, hi = window
    if not (isinstance(lo, int) and isinstance(hi, int) and lo < hi):
        raise ValueError("window must be integers lo < hi")
    if resolution < 0:
        raise ValueError("resolution must be >= 0")
    # the first test keeps a huge resolution from building a huge int
    if resolution > MAX_SAMPLES.bit_length() or (hi - lo) << resolution > MAX_SAMPLES:
        raise GridTooLargeError(f"window {window} at 2^-{resolution} needs {hi - lo} * "
                                f"2^{resolution} samples, above MAX_SAMPLES = {MAX_SAMPLES}")
    return (hi - lo) << resolution


def _lattice_points(resolution: int, window: tuple[int, int]) -> np.ndarray:
    """x = lo + k/2^J, k = 0 .. (hi-lo)*2^J - 1, formed in the one array it returns."""
    xs = np.arange(_sample_count(resolution, window), dtype=float)
    xs *= 2.0**-resolution
    xs += window[0]
    return xs


class GridFunction:
    """Samples on x = lo + k/2^J, k = 0 .. (hi-lo)*2^J - 1.

    The window [lo, hi) has integer endpoints and the function is treated
    as zero outside it.  The samples follow the data: float64 for real
    values, complex128 for complex ones.
    """

    __slots__ = ("resolution", "lo", "hi", "values")

    def __init__(self, resolution: int, window: tuple[int, int], values):
        n = _sample_count(resolution, window)
        vals = np.asarray(values)
        vals = vals.astype(complex if np.iscomplexobj(vals) else float, copy=False)
        if vals.shape != (n,):
            raise ValueError(f"expected {n} samples for window {window} at 2^-{resolution}")
        self.resolution = resolution
        self.lo, self.hi = window
        self.values = vals

    @property
    def window(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    @property
    def step(self) -> float:
        return 2.0**-self.resolution

    def x_points(self) -> np.ndarray:
        return _lattice_points(self.resolution, self.window)

    @staticmethod
    def zeros(resolution: int, window: tuple[int, int]) -> "GridFunction":
        n = _sample_count(resolution, window)  # checked before the shift can fail
        return GridFunction(resolution, window, np.zeros(n))

    @staticmethod
    def from_callable(
        f: Callable, resolution: int, window: tuple[int, int]
    ) -> "GridFunction":
        xs = _lattice_points(resolution, window)
        try:
            vals = np.asarray(f(xs))
            if vals.shape != xs.shape:
                raise TypeError
        except (TypeError, ValueError):
            vals = np.array([f(float(x)) for x in xs])
        return GridFunction(resolution, window, vals)

    # -- calculus on the lattice ------------------------------------------

    # integral and inner sum in complex: numpy's pairwise float64 sum and vdot
    # round differently from the complex128 ones, so real grids are cast first

    def integral(self) -> complex:
        return complex(self.values.astype(complex, copy=False).sum() * self.step)

    def inner(self, other: "GridFunction") -> complex:
        """<self, other> = step * sum conj(self) * other, same lattice only."""
        self._check_same_lattice(other)
        a, b = (g.values.astype(complex, copy=False) for g in (self, other))
        return complex(np.vdot(a, b) * self.step)

    def l1_distance(self, other: "GridFunction") -> float:
        self._check_same_lattice(other)
        return float(np.abs(self.values - other.values).sum() * self.step)

    def value_at(self, x: float) -> complex:
        idx = (x - self.lo) * (1 << self.resolution)
        k = round(idx)
        if abs(idx - k) > 1e-9:
            raise GridResolutionError(f"{x!r} is not a lattice point")
        if 0 <= k < len(self.values):
            return complex(self.values[int(k)])
        return 0j

    def _check_same_lattice(self, other: "GridFunction"):
        if (
            self.resolution != other.resolution
            or self.lo != other.lo
            or self.hi != other.hi
        ):
            raise GridMismatchError(
                f"lattices differ: 2^-{self.resolution} on {self.window} vs "
                f"2^-{other.resolution} on {other.window}"
            )

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_lattice(other)
        return GridFunction(self.resolution, self.window, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_lattice(other)
        return GridFunction(self.resolution, self.window, self.values - other.values)

    def __mul__(self, scalar) -> "GridFunction":
        c = complex(scalar)  # a zero imaginary part keeps a real grid real
        return GridFunction(self.resolution, self.window, self.values * (c if c.imag else c.real))

    __rmul__ = __mul__

    def __repr__(self):
        return (
            f"GridFunction(2^-{self.resolution} on [{self.lo},{self.hi}), "
            f"{len(self.values)} samples)"
        )


def _check_finite(k: int, weight: complex, mu: float) -> None:
    if not (cmath.isfinite(weight) and math.isfinite(mu)):
        raise NonFiniteWeightError(
            f"term {k} has weight {weight!r} and phase rate {mu!r}; both must be finite"
        )


def _dilation_scale(k: int, beta: float) -> float:
    """2^beta, the factor on points or rates of term k, refused beyond the float range."""
    try:
        return 2.0**beta
    except OverflowError:
        raise ExponentRangeError(
            f"term {k} has dilation power {beta!r}; 2^{beta!r} is beyond the float range"
        ) from None


def apply_op_grid(
    expr: OpExpr,
    f: GridFunction,
    out_resolution: int | None = None,
    out_window: tuple[int, int] | None = None,
) -> GridFunction:
    """Apply a normal-form operator to lattice samples.

    Every term needs an exact integer dilation power and source points
    y = 2^beta x + alpha that stay on the source lattice for every output
    x; otherwise GridResolutionError.  Every coefficient and phase rate must be
    finite (NonFiniteWeightError, checked before any term is applied).  Points
    outside the source window read as zero: a term adds its coefficient times a
    strided view of the source to the output range [lo, hi) that reads inside it.
    A real source under terms with real coefficients and no phase gives a real
    output, weighted by the coefficients' real parts; anything else is complex.
    """
    res_out = f.resolution if out_resolution is None else out_resolution
    window = f.window if out_window is None else out_window
    n_out, n_src, plan = _sample_count(res_out, window), len(f.values), []
    out_lo, out_step = window[0], 2.0**-res_out
    for k, t in enumerate(expr.terms()):
        if not (t.beta.is_exact and t.beta.dyadic.is_integer()):
            raise GridResolutionError(
                f"dilation power {t.beta.value!r} is not an exact integer; "
                "grids only support integer dilations"
            )
        b = t.beta.dyadic.num
        stride_log = b + f.resolution - res_out
        if stride_log < 0:
            raise GridResolutionError(
                f"D^{b} output at 2^-{res_out} needs source samples below 2^-{f.resolution}"
            )
        shift = _index_units(t.alpha, f.resolution, "translation")
        _check_finite(k, t.coeff, t.mu.value)
        # stride_log >= 0 guarantees b + f.resolution >= res_out >= 0, so the
        # window offset is exact integer arithmetic for every integer b
        offset = (out_lo << (b + f.resolution)) - (f.lo << f.resolution)
        plan.append((t.coeff, t.mu.value, offset + shift, 1 << stride_log))
    # a real coefficient times a real sample is the real part of the complex product
    real = not (np.iscomplexobj(f.values) or any(c.imag or mu for c, mu, _, _ in plan))
    out = np.zeros(n_out, float if real else complex)
    # each term's weighted samples go through one scratch a block at a time; with a phase
    # term, its second half holds the block's phase factors
    phased = any(mu for _, mu, _, _ in plan)
    width = min(n_out, SCRATCH_BYTES // out.itemsize // (2 if phased else 1))
    scratch = np.empty(2 * width if phased else width, out.dtype)
    for coeff, mu, base, s in plan:
        weight = coeff.real if real else coeff
        # output i reads source base + i*s; keep the i with 0 <= base + i*s < n_src
        lo, hi = max(0, -(base // s)), min(n_out, -((base - n_src) // s))
        for i in range(lo, hi, width):
            m = min(width, hi - i)
            block = scratch[:m]
            picked = f.values[base + i * s : base + (i + m - 1) * s + 1 : s]
            if picked.dtype != block.dtype:  # cast in the block, not in a ufunc buffer
                np.copyto(block, picked)
                picked = block
            if mu != 0.0:
                phase = _phase_factors(scratch[width : width + m], mu, out_lo + i * out_step,
                                       out_step)
                picked = np.multiply(picked, phase, out=block)
            out[i : i + m] += np.multiply(weight, picked, out=block)
    return GridFunction(res_out, window, out)


def _phase_factors(phase: np.ndarray, mu: float, x0: float, step: float) -> np.ndarray:
    """e^(i mu x) at x = x0 + k step, k = 0 .. len(phase) - 1, formed in phase alone.

    The points are summed up in its real part: each partial sum is a lattice point, an
    exact dyadic, so it has the bits of x0 + k step however that is formed."""
    x = phase.real
    x.fill(step)
    x[0] = x0
    np.cumsum(x, out=x)
    phase.imag = 0.0
    np.multiply(1j * mu, phase, out=phase)
    return np.exp(phase, out=phase)


@_own_arithmetic
class ExpSum(_NormalForm):
    """Finite sum of coeff * e^(rate * x) with complex coeff and rate.

    The shared normal form with rows Re(rate) and Im(rate), built as floats:
    rates descend and merge by the shared rule, and products add them.
    Closed under the full operator algebra: phases shift the rate by i*mu,
    dilations scale it by 2^beta, translations multiply the coefficient by
    e^(rate*alpha).
    """

    __slots__ = ()
    _ORDER = (0, 1)

    def __init__(self, terms: Iterable[tuple[complex, complex]] = ()):
        coeffs, rates = (list(map(complex, col)) for col in list(zip(*terms)) or ((), ()))
        n = len(rates)
        self._assign(_merged(self._ORDER, [c.real for c in coeffs], [c.imag for c in coeffs],
                             [[0] * n, [0] * n], 0,
                             [[r.real for r in rates], [r.imag for r in rates]],
                             [[False] * n, [False] * n]))

    @staticmethod
    def exponential(rate: complex) -> "ExpSum":
        return ExpSum([(1.0, rate)])

    @staticmethod
    def constant(c: complex = 1.0) -> "ExpSum":
        return ExpSum([(c, 0j)])

    def _pairs(self) -> tuple:
        """(coeff, rate) pairs, rates descending; built once."""
        if self._terms is None:
            self._terms = tuple(zip(map(complex, self._re, self._im), map(complex, *self._val)))
        return self._terms

    terms = _pairs  # the public name; methods below call _pairs, so a wrapper of terms misses them

    def coefficient_of(self, rate: complex) -> complex:
        hits = [c for c, r in self._pairs() if abs(r - rate) <= 1e-9]
        return sum(hits, 0j)

    def eval(self, x):
        # a Python number never reads np, so scalar evaluation does not load numpy
        if not isinstance(x, (int, float, complex)) and isinstance(x, np.ndarray):
            out = np.zeros(x.shape, dtype=complex)
            for c, r in self._pairs():
                out += c * np.exp(r * x)
            return out
        total = 0j
        for c, r in self._pairs():
            total += c * _exp(r * x, "rate*x")
        return total

    def sample(self, xs: np.ndarray) -> np.ndarray:
        return self.eval(np.asarray(xs, dtype=float))

    def __str__(self):
        inner = " + ".join(f"({c})e^({r})x" for c, r in self._pairs())
        return f"ExpSum[{inner or '0'}]"

    __repr__ = __str__


def apply_op_expsum(expr: OpExpr, es: ExpSum) -> ExpSum:
    """Exact closed-form action of a normal-form operator on an ExpSum.

    A dilation power of 1024 or more raises ExponentRangeError up front."""
    mus, betas, alphas = expr._val
    scales = [_dilation_scale(k, beta) for k, beta in enumerate(betas)]
    out = []
    coeffs = map(complex, expr._re, expr._im)
    for coeff, mu, alpha, scale in zip(coeffs, mus, alphas, scales):
        for a, rate in es._pairs():
            c = coeff * a
            if alpha != 0.0:
                c *= _exp(rate * alpha, "rate*alpha")
            out.append((c, rate * scale + 1j * mu))
    return ExpSum(out)

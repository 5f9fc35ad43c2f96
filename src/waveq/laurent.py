"""Laurent polynomials in a translation symbol T with exact dyadic exponents.

The exponent lattice of everything downstream (operator normal forms, scaling
masks, functional-equation solvers) lives in the dyadic rationals p/2^m, and
several checks are required to come out *exactly* zero in floating point.
That only works if exponents are carried as exact integers rather than
floats, so this module keeps a hard split between exact `Dyadic` exponents
and approximate float ones and never demotes the former silently.  It also
holds the normal form that LaurentPoly shares with opalgebra's OpExpr.
"""

from __future__ import annotations

import cmath
import contextlib
import itertools
import math
import operator
import warnings

COEFF_PRUNE_TOL = 1e-15
EXPONENT_MERGE_TOL = 1e-12
PHASE_OVERFLOW_LIMIT = 700.0
MAX_LOG2_DEN = 30  # Dyadic.from_float: finer floats stay approximate


class LaurentError(Exception):
    pass


class LaurentParseError(LaurentError):
    """Syntax error in the text form; `position` is a 0-based char offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class EvaluationOverflowError(LaurentError):
    pass


class ExponentRangeError(LaurentError, ValueError):
    """An exponent whose value lies beyond the float range."""


def _exact_value(num: int, log2_den: int) -> float:
    """num / 2**log2_den rounded once to a float: the value of an exact exponent."""
    try:
        return num / (1 << log2_den)
    except OverflowError:
        bits = num.bit_length() - 1 - log2_den
        raise ExponentRangeError(f"exact exponent ~2^{bits} is beyond the float range") from None


class ApproximateExponentWarning(UserWarning):
    """A non-dyadic rational exponent was accepted as an approximate float."""


class Dyadic:
    """Exact dyadic rational num / 2**log2_den.

    Canonical form: log2_den == 0, or num is odd.  Instances are immutable
    by convention and hashable, so equality is equality of canonical fields.
    """

    __slots__ = ("num", "log2_den")

    def __init__(self, num: int, log2_den: int = 0):
        if log2_den < 0:
            # normalize negative "denominators" into the numerator
            num <<= -log2_den
            log2_den = 0
        if num == 0:
            log2_den = 0
        elif log2_den > 0:
            shift = min((num & -num).bit_length() - 1, log2_den)
            num >>= shift
            log2_den -= shift
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "log2_den", log2_den)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    @staticmethod
    def from_float(x: float) -> "Dyadic | None":
        """Exact conversion when x is a dyadic with a small denominator.

        Returns None when x is not exactly representable over 2**MAX_LOG2_DEN;
        callers then fall back to approximate exponents.
        """
        if x != x or math.isinf(x):
            return None
        num, den = float(x).as_integer_ratio()
        log2_den = den.bit_length() - 1
        if log2_den > MAX_LOG2_DEN:
            return None
        return Dyadic(num, log2_den)

    def __float__(self) -> float:
        return _exact_value(self.num, self.log2_den)

    def is_integer(self) -> bool:
        return self.log2_den == 0

    def __eq__(self, other) -> bool:
        p = self._pair(other)
        return NotImplemented if p is None else p[0] == p[1]

    def __hash__(self):
        return hash((self.num, self.log2_den))

    def _pair(self, other) -> "tuple[int, int, int] | None":
        """The numerators of self and other over their common 2**m, and m;
        None unless other is an int or a Dyadic."""
        if isinstance(other, int):
            other = Dyadic(other)
        if not isinstance(other, Dyadic):
            return None
        m = max(self.log2_den, other.log2_den)
        return self.num << (m - self.log2_den), other.num << (m - other.log2_den), m

    def __lt__(self, other):
        p = self._pair(other)
        return NotImplemented if p is None else p[0] < p[1]

    def __le__(self, other):
        p = self._pair(other)
        return NotImplemented if p is None else p[0] <= p[1]

    def __add__(self, other):
        p = self._pair(other)
        return NotImplemented if p is None else Dyadic(p[0] + p[1], p[2])

    __radd__ = __add__

    def __neg__(self):
        return Dyadic(-self.num, self.log2_den)

    def __sub__(self, other):
        p = self._pair(other)
        return NotImplemented if p is None else Dyadic(p[0] - p[1], p[2])

    def __mul__(self, other):
        p = self._pair(other)
        return NotImplemented if p is None else Dyadic(p[0] * p[1], 2 * p[2])

    __rmul__ = __mul__

    def scaled_pow2(self, k: int) -> "Dyadic":
        """self * 2**k, exactly."""
        if k >= 0:
            return Dyadic(self.num << k, self.log2_den)
        return Dyadic(self.num, self.log2_den - k)

    def __repr__(self):
        if self.log2_den == 0:
            return f"Dyadic({self.num})"
        return f"Dyadic({self.num}, {self.log2_den})"

    def __str__(self):
        if self.log2_den == 0:
            return str(self.num)
        if self.log2_den == 1:
            return f"{self.num}/2"
        return f"{self.num}/2^{self.log2_den}"


class Exponent:
    """Either an exact Dyadic or an approximate float exponent.

    Exact values are never silently demoted: arithmetic keeps exactness
    whenever every operand is exact and the operation stays dyadic.
    Approximate values compare equal within EXPONENT_MERGE_TOL.  Equality is
    tolerance-based, so Exponent is deliberately unhashable; containers sort
    and merge by value instead.
    """

    __slots__ = ("dyadic", "approx")

    def __init__(self, dyadic: Dyadic | None, approx: float | None):
        if (dyadic is None) == (approx is None):
            raise ValueError("Exponent is exactly one of exact/approximate")
        object.__setattr__(self, "dyadic", dyadic)
        object.__setattr__(self, "approx", approx)

    def __setattr__(self, name, value):
        raise AttributeError("Exponent is immutable")

    @staticmethod
    def exact(value: "Dyadic | int") -> "Exponent":
        if isinstance(value, int):
            value = Dyadic(value)
        return Exponent(value, None)

    @staticmethod
    def approximate(value: float) -> "Exponent":
        return Exponent(None, float(value))

    @staticmethod
    def of(value) -> "Exponent":
        """Coerce ints/Dyadics to exact, floats to exact-if-dyadic-small."""
        if isinstance(value, Exponent):
            return value
        if isinstance(value, (int, Dyadic)):
            return Exponent.exact(value)
        d = Dyadic.from_float(float(value))
        if d is not None:
            return Exponent.exact(d)
        return Exponent.approximate(float(value))

    @property
    def is_exact(self) -> bool:
        return self.dyadic is not None

    @property
    def value(self) -> float:
        return float(self.dyadic) if self.dyadic is not None else self.approx

    def __eq__(self, other) -> bool:
        if not isinstance(other, Exponent):
            return NotImplemented
        if self.is_exact and other.is_exact:
            return self.dyadic == other.dyadic
        return abs(self.value - other.value) <= EXPONENT_MERGE_TOL

    __hash__ = None  # tolerance equality forbids hashing

    def __neg__(self):
        if self.is_exact:
            return Exponent.exact(-self.dyadic)
        return Exponent.approximate(-self.approx)

    def scaled_pow2(self, k: int) -> "Exponent":
        if self.is_exact:
            return Exponent.exact(self.dyadic.scaled_pow2(k))
        return Exponent.approximate(self.approx * (2.0**k))

    def __repr__(self):
        if self.is_exact:
            return f"Exponent[{self.dyadic}]"
        return f"Exponent[~{self.approx!r}]"


def _format_real(v: float) -> str:
    return format(v, ".17g")


def _format_coeff(c: complex) -> str:
    if c.imag == 0.0:
        return _format_real(c.real)
    re, im = c.real, c.imag
    sign = "+" if im >= 0 else "-"
    return f"({_format_real(re)}{sign}{_format_real(abs(im))}j)"


def _format_exponent(e: Exponent) -> str:
    if e.is_exact:
        return str(e.dyadic)
    return _format_real(e.approx)


def _term_text(c: complex, factors) -> tuple[str, bool]:
    """Return (body, negative) with the sign pulled out for real coefficients;
    factors are (symbol, Exponent) pairs, of which exact zeros are left out."""
    negative = c.imag == 0.0 and c.real < 0
    if negative:
        c = -c
    factors = [f"{s}^{_format_exponent(e)}" for s, e in factors if not e.is_exact or e.dyadic.num]
    if not factors:
        return _format_coeff(c), negative
    if c == 1:
        return "*".join(factors), negative
    return "*".join([_format_coeff(c)] + factors), negative


# ---------------------------------------------------------------------------
# The normal form of LaurentPoly, OpExpr and gridfn's ExpSum (README, "Normal
# form"): a sum of terms held column by column, as Python lists:
#
#   _re, _im   coefficient parts, floats
#   _val       exponent values, floats, one list per exponent row
#   _exact     which exponents are exact dyadics, in the same rows
#   _num       exact exponents as integer numerators over 2**_den, 0 where
#              approximate, in the same rows
#
# Each class holds only its own rows: LaurentPoly alpha, ExpSum the real and
# imaginary parts of a rate, OpExpr mu, beta and alpha.  An exact exponent's
# value is its numerator rounded once to a float.  _den need not be minimal:
# terms() reduces each exponent, as Dyadic does, when it builds it.

MU, BETA, ALPHA = 0, 1, 2  # OpExpr's rows


def _split(e) -> tuple:
    """An exponent-like, read as Exponent.of reads it: (numerator, log2
    denominator) when it is exact, else (value, None)."""
    if type(e) is int:
        return e, 0
    if type(e) is float:
        e = Dyadic.from_float(e) or e
    elif type(e) is not Dyadic:
        e = Exponent.of(e)
        e = e.approx if e.dyadic is None else e.dyadic
    return (e, None) if type(e) is float else (e.num, e.log2_den)


def _columns(coeffs, rows: list) -> tuple:
    """Columns of coefficients (numbers) and rows of exponent-likes."""
    rows, den = [list(map(_split, row)) for row in rows], 0
    for row in rows:  # loops and appends: cheaper than comprehensions on short rows
        for _, m in row:
            if m and m > den:
                den = m
    num, val, exact, re, im = [], [], [], [], []
    for row in rows:
        nr, vr, xr = [], [], []
        for k, m in row:
            nr.append(0 if m is None else k << den - m)
            vr.append(k if m is None else _exact_value(k, m))
            xr.append(m is not None)
        num.append(nr), val.append(vr), exact.append(xr)
    for c in map(complex, coeffs):
        re.append(c.real), im.append(c.imag)
    return re, im, num, den, val, exact


def _clusters(order, val, exact, num) -> tuple[list, list]:
    """Cluster number of each entry of one exponent row, and the entry that
    represents each cluster; `order` sorts the row by (value, not exact,
    numerator).

    The merge rule: values chain into one cluster while each step is at
    most EXPONENT_MERGE_TOL, except that a second exact value starts a new
    cluster, so distinct exact exponents never fuse, even where their floats
    coincide.  A cluster is represented by its exact value if it has one,
    else by its first entry.
    """
    ids, reps = [0] * len(order), []
    prev, rep = None, None  # rep: the cluster's exact entry, if any
    for t in order:
        v = val[t]
        if prev is None or v - prev > EXPONENT_MERGE_TOL or (
                exact[t] and rep is not None and num[t] != num[rep]):
            reps.append(t)
            rep = None
        if exact[t] and rep is None:
            reps[-1] = rep = t
        prev = v
        ids[t] = len(reps) - 1
    return ids, reps


def _merged(order, re, im, num, den, val, exact) -> tuple:
    """Snap, order, merge and prune raw columns.

    Every exponent takes its cluster's representative, terms are ordered by
    descending clusters of the rows taken in `order`, stably, and the
    coefficients of equal terms are added in that order; then
    |c| < COEFF_PRUNE_TOL goes, while a NaN in either part stays.  A row of
    exact exponents needs no snapping: its numerators are its clusters.  Nor
    does a row whose sorted values are pairwise more than EXPONENT_MERGE_TOL
    apart: each value is its own cluster and representative, so its values
    are its clusters.  Normalized columns merge to themselves.
    """
    n = len(re)
    if n > 1:
        # rep_of[r][t]: the entry t takes; None for a constant row, True for an exact one
        rep_of, keys, snapped = [None] * len(order), [], False
        for r in order:
            v, x, k = val[r], exact[r], num[r]
            if x.count(True) == n:  # each entry its own representative
                if k.count(k[0]) < n:
                    keys.append(k)
                    rep_of[r] = True
            elif x.count(True) or v.count(v[0]) < n:  # else nothing to snap
                s = sorted(v)  # a NaN gap fails the test, and the row takes the walk
                if all(map(EXPONENT_MERGE_TOL.__lt__, map(operator.sub, s[1:], s))):
                    keys.append(v)
                    rep_of[r] = True
                else:
                    by = list(zip(v, [not e for e in x], k))
                    ids, reps = _clusters(sorted(range(n), key=by.__getitem__), v, x, k)
                    keys.append(ids)
                    rep_of[r], snapped = [reps[c] for c in ids], True
        word = list(zip(*keys)) if len(keys) > 1 else keys[0] if keys else [0] * n
        firsts, re_out, im_out, last = [], [], [], None
        for t in sorted(range(n), key=word.__getitem__, reverse=True):  # stable
            if word[t] == last:
                re_out[-1] += re[t]
                im_out[-1] += im[t]
            else:
                firsts.append(t)
                re_out.append(re[t])
                im_out.append(im[t])
                last = word[t]
        re, im = re_out, im_out
        if snapped or firsts != list(range(n)):  # else the rows stand as they are
            num, val, exact = [*num], [*val], [*exact]
            for r, reps in enumerate(rep_of):
                pick = list(map(reps.__getitem__, firsts)) if isinstance(reps, list) else firsts
                for a in (num, val, exact):
                    a[r] = list(map(a[r].__getitem__, pick))
    # |c| >= |Re c|, so |c| is taken only below the tolerance in Re c; a NaN
    # that min() meets first opens the gate, and no NaN is dropped
    if re and not min(map(abs, re)) >= COEFF_PRUNE_TOL:
        keep = [abs(r) >= COEFF_PRUNE_TOL or not abs(complex(r, i)) < COEFF_PRUNE_TOL
                for r, i in zip(re, im)]
        if not all(keep):
            re, im = list(itertools.compress(re, keep)), list(itertools.compress(im, keep))
            num, val, exact = ([list(itertools.compress(row, keep)) for row in a]
                               for a in (num, val, exact))
    return re, im, num, den, val, exact


def _compose_translations(a: "_NormalForm", b: "_NormalForm") -> tuple:
    """Raw columns of every product a_i b_j, in row-major (i, j) order, of
    terms whose exponents add row by row: (c1 T^a1)(c2 T^a2) = c1 c2 T^(a1 + a2)."""
    den = max(a._den, b._den)
    sa, sb, unit = den - a._den, den - b._den, 1 << den
    re, im, num, val, exact = [], [], [], [], []
    pairs_b = list(zip(b._re, b._im))
    for r1, i1 in zip(a._re, a._im):
        for r2, i2 in pairs_b:
            re.append(r1 * r2 - i1 * i2)
            im.append(r1 * i2 + i1 * r2)
    for row_a, row_b in zip(zip(a._num, a._val, a._exact), zip(b._num, b._val, b._exact)):
        nr, vr, xr = [], [], []
        terms_b = list(zip(*row_b))
        for k1, v1, x1 in zip(*row_a):
            k1 <<= sa
            for k2, v2, x2 in terms_b:
                x = x1 and x2
                nr.append(k1 + (k2 << sb) if x else 0)
                vr.append(nr[-1] / unit if x else v1 + v2)
                xr.append(x)
        num.append(nr), val.append(vr), exact.append(xr)
    return re, im, num, den, val, exact


def _compose(a: "_NormalForm", b: "_NormalForm") -> tuple:
    """Raw columns of every product a_i b_j of OpExpr terms, in row-major
    (i, j) order:

        (c1 P^m1 D^b1 T^a1)(c2 P^m2 D^b2 T^a2)
            = c1 c2 e^{i m2 a1} P^(m1 + 2^b1 m2) D^(b1+b2) T^(2^b2 a1 + a2)

    The phase factor is applied only where m2 and a1 are both nonzero; 2^b x
    is exact when x is exact and b an exact integer, or x is exactly 0.
    2.0**b is taken once per term, and again only where it is 0 or overflows
    a float, for a nonzero x.
    """
    ka, kb = ([k >> f._den if x and not k & ((1 << f._den) - 1) else None  # exact integer betas
               for k, x in zip(f._num[BETA], f._exact[BETA])] for f in (a, b))
    den = max(a._den, b._den) - min([0] + [k for k in ka + kb if k is not None])
    sa, sb = den - a._den, den - b._den
    pa, pb = ([2.0**v if v < 1024.0 else None for v in f._val[BETA]] for f in (a, b))
    out, unit = [], 1 << den
    terms_b = list(zip(b._re, b._im, *b._num, *b._val, *b._exact, pb, kb))
    for r1, i1, m1, b1, a1, vm1, vb1, va1, xm1, xb1, xa1, p1, k1 in zip(
            a._re, a._im, *a._num, *a._val, *a._exact, pa, ka):
        m1, b1 = m1 << sa, b1 << sa
        for r2, i2, m2, b2, a2, vm2, vb2, va2, xm2, xb2, xa2, p2, k2 in terms_b:
            cr, ci = r1 * r2 - i1 * i2, r1 * i2 + i1 * r2
            if va1 != 0.0 and vm2 != 0.0:
                p = cmath.exp(1j * (va1 * vm2))
                cr, ci = cr * p.real - ci * p.imag, cr * p.imag + ci * p.real
            xm = xm1 and xm2 and (m2 == 0 or k1 is not None)
            xb = xb1 and xb2
            xa = xa1 and xa2 and (a1 == 0 or k2 is not None)
            nm = m1 + (m2 << (sb + (k1 or 0))) if xm else 0
            nb = b1 + (b2 << sb) if xb else 0
            na = (a1 << (sa + (k2 or 0))) + (a2 << sb) if xa else 0
            out.append((cr, ci, nm, nb, na,
                        nm / unit if xm else vm1 + (vm2 * p1 if p1 else vm2 and vm2 * 2.0**vb1),
                        nb / unit if xb else vb1 + vb2,
                        na / unit if xa else (va1 * p2 if p2 else va1 and va1 * 2.0**vb2) + va2,
                        xm, xb, xa))
    re, im, *cols = map(list, zip(*out))
    return re, im, cols[0:3], den, cols[3:6], cols[6:9]


_new = object.__new__
_set_num, _set_log2_den = Dyadic.num.__set__, Dyadic.log2_den.__set__
_set_dyadic, _set_approx = Exponent.dyadic.__set__, Exponent.approx.__set__


def _exponents(num: list, val: list, exact: list, den: int) -> list:
    """Exponent objects of one row, one object per distinct value, so a
    constant row shares one.  Each is set past the two constructors' checks,
    with Dyadic's reduction: the columns hold only integer numerators over
    2**den, den >= 0, and floats.  An approximate entry's numerator is 0 and
    an exact entry's value follows from its numerator, so (exact, numerator,
    value) keys the entries as (exact, numerator or value) would."""
    n = len(num)
    if n > 1 and exact.count(exact[0]) == num.count(num[0]) == val.count(val[0]) == n:
        return _exponents(num[:1], val[:1], exact[:1], den) * n
    keys = list(zip(exact, num, val))
    made = dict.fromkeys(keys)  # the first of equal keys stays, as of -0.0 and 0.0
    for key in made:
        x, k, v = key
        e = made[key] = _new(Exponent)
        if x:
            shift = min((k & -k).bit_length() - 1, den) if k and den else den
            d = _new(Dyadic)
            _set_num(d, k >> shift)
            _set_log2_den(d, den - shift)
            _set_dyadic(e, d)
            _set_approx(e, None)
        else:
            _set_dyadic(e, None)
            _set_approx(e, v)
    return list(map(made.__getitem__, keys))


_SCALARS = (int, float, complex)


class _NormalForm:
    """Normalized sum of terms, immutable by convention (only private slots
    exist): the arithmetic of LaurentPoly, OpExpr and ExpSum.  A subclass
    declares its rows in merge order (_ORDER), their printed symbols
    (_SYMBOLS) and builds its own term tuples in terms()."""

    __slots__ = ("_re", "_im", "_num", "_den", "_val", "_exact", "_terms")
    _product = _compose_translations  # the one product, unless a subclass has its own

    def _assign(self, columns: tuple) -> None:
        self._re, self._im, self._num, self._den, self._val, self._exact = columns
        self._terms = None

    @classmethod
    def _normal(cls, *columns):
        """A normalized instance of raw columns."""
        out = object.__new__(cls)
        out._assign(_merged(cls._ORDER, *columns))
        return out

    @classmethod
    def _constant(cls, c: complex):
        c, n = complex(c), len(cls._ORDER)  # rows are never changed in place: sharing is safe
        return cls._normal([c.real], [c.imag], [[0]] * n, 0, [[0.0]] * n, [[True]] * n)

    def _rows(self) -> tuple:
        """The coefficients, then the Exponent objects of each row."""
        return (list(map(complex, self._re, self._im)),
                *(_exponents(*row, self._den) for row in zip(self._num, self._val, self._exact)))

    def __len__(self):
        return len(self._re)

    def is_zero(self) -> bool:
        return not self._re

    def max_abs_coeff(self) -> float:
        return max(map(abs, map(complex, self._re, self._im)), default=0.0)

    def isclose(self, other, tol: float = 1e-12) -> bool:
        return (self - other).max_abs_coeff() <= tol

    def _coerce(self, other):
        if isinstance(other, _SCALARS):
            return self._constant(other)
        return other if type(other) is type(self) else None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = max(self._den, other._den)
        sa, sb = den - self._den, den - other._den
        num = [([k << sa for k in p] if sa else p) + ([k << sb for k in q] if sb else q)
               for p, q in zip(self._num, other._num)]
        val = [u + v for u, v in zip(self._val, other._val)]
        exact = [x + y for x, y in zip(self._exact, other._exact)]
        return self._normal(self._re + other._re, self._im + other._im, num, den, val, exact)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(type(self))
        out._assign(([-x for x in self._re], [-x for x in self._im], self._num, self._den,
                     self._val, self._exact))
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            c, pairs = complex(other), list(zip(self._re, self._im))
            return self._normal([x * c.real - y * c.imag for x, y in pairs],
                                [x * c.imag + y * c.real for x, y in pairs],
                                self._num, self._den, self._val, self._exact)
        if type(other) is not type(self):
            return NotImplemented
        if not (self._re and other._re):
            return self._constant(0.0)
        try:
            columns = self._product(other)
        except OverflowError:  # products divide inline: a call per value costs ~10%
            raise ExponentRangeError("a product's exponent is beyond the float range") from None
        return self._normal(*columns)

    def __rmul__(self, other):
        return self * other if isinstance(other, _SCALARS) else NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be nonnegative integers")
        # square-and-multiply: word powers grow to 2^n terms, so the last
        # squaring dominates and repeated multiplication would double it
        out, base = self._constant(1.0), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        sa, sb = (max(self._den, other._den) - f._den for f in (self, other))
        return self._re == other._re and self._im == other._im and all(
            (p << sa == q << sb) if x and y else abs(u - v) <= EXPONENT_MERGE_TOL
            for rows in zip(self._num, other._num, self._val, other._val,
                            self._exact, other._exact)
            for p, q, u, v, x, y in zip(*rows))

    __hash__ = None

    def __str__(self):
        pieces = []
        for i, (c, *exps) in enumerate(zip(*self._rows())):
            body, negative = _term_text(c, zip(self._SYMBOLS, exps))
            pieces.append(("-" if negative else "") + body if i == 0
                          else (" - " if negative else " + ") + body)
        return "".join(pieces) or "0"

    def __repr__(self):
        return f"{type(self).__name__}({self})"


def _own_arithmetic(cls):
    """Bind the shared public methods in cls's own namespace, where
    per-class instrumentation (bench/tracer.py walks vars(cls)) finds them."""
    for name in ("is_zero", "max_abs_coeff", "isclose", "__add__", "__radd__", "__neg__",
                 "__sub__", "__rsub__", "__mul__", "__rmul__", "__pow__"):
        setattr(cls, name, vars(_NormalForm)[name])
    return cls


@_own_arithmetic
class LaurentPoly(_NormalForm):
    """Finite sum of c_alpha * T^alpha with complex c and Exponent alpha.

    The shared normal form with one exponent row, alpha: exponents strictly
    descending, coefficients with |c| < COEFF_PRUNE_TOL removed, exponents
    equal under the merge rule combined.  All operations return new
    normalized instances.
    """

    __slots__ = ()
    _ORDER = (0,)
    _SYMBOLS = "T"

    def __init__(self, terms=()):
        alpha, coeffs = list(zip(*terms)) or ((), ())
        self._assign(_merged(self._ORDER, *_columns(coeffs, [alpha])))

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly._constant(1.0)

    @staticmethod
    def scalar(c: complex) -> "LaurentPoly":
        return LaurentPoly._constant(c)

    @staticmethod
    def from_dict(d: dict) -> "LaurentPoly":
        """Build from {exponent-like: coeff}; handy in tests."""
        return LaurentPoly(d.items())

    # -- inspection ------------------------------------------------------

    def _pairs(self) -> tuple:
        """(Exponent, complex) pairs, exponents descending; built once."""
        if self._terms is None:
            coeffs, alpha = self._rows()
            self._terms = tuple(zip(alpha, coeffs))
        return self._terms

    terms = _pairs  # the public name; methods below call _pairs, so a wrapper of terms misses them

    def coeff_at(self, exponent) -> complex:
        target = Exponent.of(exponent)
        for e, c in self._pairs():
            if e == target:
                return c
        return 0j

    # -- the operations the rest of the package needs ---------------------

    def substitute_power(self, m) -> "LaurentPoly":
        """T -> T^m: multiply every exponent by m != 0, read as substitute_scaled reads it."""
        if (m.num if isinstance(m, Dyadic) else float(m)) == 0:
            raise ValueError("substitution power must be nonzero")
        return self.substitute_scaled(m, 0.0)

    def substitute_scaled(self, m, phase: float) -> "LaurentPoly":
        """T -> e^{i*phase} T^m: exponents scale by m, coefficients pick up
        e^{i*phase*alpha}.  phase == 0 keeps coefficients bit-identical.  m is
        read as Exponent.of reads it: an int, a Dyadic or a float that is a
        small dyadic keeps exact exponents exact; any other float makes every
        exponent approximate."""
        (num,), (val,), (exact,), re, im = self._num, self._val, self._exact, self._re, self._im
        if phase != 0.0:
            z = 1j * phase
            cs = [complex(r, i) * cmath.exp(z * v) for r, i, v in zip(re, im, val)]
            re, im = [c.real for c in cs], [c.imag for c in cs]
        k, log2_den = _split(m)
        if log2_den is None:
            n = len(re)
            return self._normal(re, im, [[0] * n], 0, [[v * k for v in val]], [[False] * n])
        den = self._den + log2_den
        factor = None if all(exact) else _exact_value(k, log2_den)  # only where a value needs it
        num = [a * k for a in num]  # 0 where approximate
        val = [_exact_value(a, den) if x else v * factor for a, v, x in zip(num, val, exact)]
        return self._normal(re, im, [num], den, [val], [exact])

    def eval_phase(self, lam: complex) -> complex:
        """Evaluate with T^alpha -> e^{lam * alpha}.

        Raises EvaluationOverflowError when any |Re(lam*alpha)| exceeds
        PHASE_OVERFLOW_LIMIT instead of returning inf.
        """
        lam, total = complex(lam), 0j
        for alpha, re, im in zip(self._val[0], self._re, self._im):
            total += complex(re, im) * _exp(lam * alpha, "lambda*alpha")
        return total


def _exp(z: complex, what: str) -> complex:
    """e^z, or EvaluationOverflowError naming `what` (the product z stands
    for) when |Re z| exceeds PHASE_OVERFLOW_LIMIT."""
    if abs(z.real) > PHASE_OVERFLOW_LIMIT:
        raise EvaluationOverflowError(f"evaluation overflow: Re({what}) = {z.real!r}")
    return cmath.exp(z)


def _overflow(quantity: str, at: str) -> EvaluationOverflowError:
    """The error for a quantity beyond the float range, and the input it was computed at."""
    return EvaluationOverflowError(f"evaluation overflow: {quantity} is beyond the float "
                                   f"range at {at}")


@contextlib.contextmanager
def _float_range(quantity: str, at: str):
    """Turn an OverflowError raised inside into EvaluationOverflowError naming
    the quantity being computed and the input it was computed at."""
    try:
        yield
    except OverflowError:
        raise _overflow(quantity, at) from None


def _pow2(n: int) -> float:
    """2.0**n, or EvaluationOverflowError naming n when 2^n is beyond the float
    range (caught directly: a context manager per call costs ~20x the power)."""
    try:
        return 2.0**n
    except OverflowError:
        raise _overflow("2^n", f"n = {n}") from None


# ---------------------------------------------------------------------------
# parsing


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise LaurentParseError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def read_digits(self) -> str:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if self.pos == start:
            raise LaurentParseError("expected digits", start)
        return self.text[start : self.pos]

    def read_number(self) -> tuple[str, bool]:
        """Unsigned numeric literal; returns (text, is_integer_literal)."""
        start = self.pos
        self.read_digits()
        is_int = True
        if self.peek() == ".":
            is_int = False
            self.pos += 1
            while self.peek().isdigit():
                self.pos += 1
        if self.peek() in ("e", "E"):
            save = self.pos
            self.pos += 1
            if self.peek() in ("+", "-"):
                self.pos += 1
            if self.peek().isdigit():
                is_int = False
                while self.peek().isdigit():
                    self.pos += 1
            else:
                self.pos = save  # not an exponent part after all
        return self.text[start : self.pos], is_int


def _parse_exponent(sc: _Scanner) -> Exponent:
    sc.skip_ws()
    start = sc.pos
    sign = 1
    if sc.peek() in ("+", "-"):
        if sc.peek() == "-":
            sign = -1
        sc.pos += 1
        sc.skip_ws()
    if not sc.peek().isdigit():
        raise LaurentParseError("expected exponent", sc.pos)
    num_text, num_is_int = sc.read_number()
    if sc.peek() != "/":
        if num_is_int:
            return Exponent.exact(sign * int(num_text))
        return Exponent.approximate(sign * float(num_text))
    # rational exponent p/q or p/2^m
    if not num_is_int:
        raise LaurentParseError("rational exponent needs an integer numerator", start)
    sc.pos += 1
    if not sc.peek().isdigit():
        raise LaurentParseError("expected denominator", sc.pos)
    den_start = sc.pos
    den_text = sc.read_digits()
    if den_text == "2" and sc.peek() == "^":
        sc.pos += 1
        m_text = sc.read_digits()
        return Exponent.exact(Dyadic(sign * int(num_text), int(m_text)))
    den = int(den_text)
    if den == 0:
        raise LaurentParseError("zero denominator", den_start)
    if den & (den - 1) == 0:
        return Exponent.exact(Dyadic(sign * int(num_text), den.bit_length() - 1))
    warnings.warn(
        f"non-dyadic exponent {sign * int(num_text)}/{den} stored as approximate",
        ApproximateExponentWarning,
        stacklevel=3,
    )
    return Exponent.approximate(sign * int(num_text) / den)


def _parse_tfactor(sc: _Scanner) -> Exponent:
    sc.expect("T")
    sc.skip_ws()
    if sc.peek() != "^":
        raise LaurentParseError("expected '^' after T", sc.pos)
    sc.pos += 1
    return _parse_exponent(sc)


def parse_laurent(text: str) -> LaurentPoly:
    """Parse the canonical text form.

    Grammar: a sum of signed terms, each `coeff`, `T^exp`, or `coeff*T^exp`;
    coeff is a decimal or rational p/q; exp is an integer, a decimal
    (stored approximate), or a dyadic rational p/2^m or p/q with q a power
    of two.  A non-dyadic rational exponent is accepted as an approximate
    float and flagged with ApproximateExponentWarning.
    """
    sc = _Scanner(text)
    terms: list[tuple[Exponent, complex]] = []
    sc.skip_ws()
    if sc.at_end():
        raise LaurentParseError("empty input", 0)
    first = True
    while True:
        sc.skip_ws()
        sign = 1.0
        if sc.peek() in ("+", "-"):
            if sc.peek() == "-":
                sign = -1.0
            sc.pos += 1
            sc.skip_ws()
        elif not first:
            if sc.at_end():
                break
            raise LaurentParseError("expected '+' or '-'", sc.pos)
        first = False
        if sc.peek() == "T":
            exp = _parse_tfactor(sc)
            terms.append((exp, complex(sign)))
        elif sc.peek().isdigit():
            num_text, _ = sc.read_number()
            coeff = float(num_text)
            if sc.peek() == "/":
                sc.pos += 1
                if not sc.peek().isdigit():
                    raise LaurentParseError("expected denominator", sc.pos)
                den_start = sc.pos
                den_text, den_is_int = sc.read_number()
                if not den_is_int:
                    raise LaurentParseError("expected integer denominator", den_start)
                den = int(den_text)
                if den == 0:
                    raise LaurentParseError("zero denominator", den_start)
                coeff /= den
            sc.skip_ws()
            if sc.peek() == "*":
                sc.pos += 1
                sc.skip_ws()
                if sc.peek() != "T":
                    raise LaurentParseError("expected T after '*'", sc.pos)
                exp = _parse_tfactor(sc)
                terms.append((exp, sign * coeff + 0j))
            else:
                terms.append((Exponent.exact(0), sign * coeff + 0j))
        elif sc.at_end():
            raise LaurentParseError("dangling sign", sc.pos)
        else:
            raise LaurentParseError(f"unexpected character {sc.peek()!r}", sc.pos)
        sc.skip_ws()
        if sc.at_end():
            break
        if sc.peek() not in ("+", "-"):
            raise LaurentParseError("expected '+' or '-'", sc.pos)
    return LaurentPoly(terms)

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
import math
import warnings

COEFF_PRUNE_TOL = 1e-15
EXPONENT_MERGE_TOL = 1e-12
PHASE_OVERFLOW_LIMIT = 700.0


class LaurentError(Exception):
    pass


class LaurentParseError(LaurentError):
    """Syntax error in the text form; `position` is a 0-based char offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class EvaluationOverflowError(LaurentError):
    pass


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
    def from_float(x: float, max_log2_den: int = 30) -> "Dyadic | None":
        """Exact conversion when x is a dyadic with a small denominator.

        Returns None when x is not exactly representable within the given
        denominator bound; callers then fall back to approximate exponents.
        """
        if x != x or math.isinf(x):
            return None
        num, den = float(x).as_integer_ratio()
        log2_den = den.bit_length() - 1
        if log2_den > max_log2_den:
            return None
        return Dyadic(num, log2_den)

    def __float__(self) -> float:
        return self.num / (1 << self.log2_den)

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
            return _ZERO if type(value) is int and not value else Exponent.exact(value)
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

    def add(self, other: "Exponent") -> "Exponent":
        if self.is_exact and other.is_exact:
            return Exponent.exact(self.dyadic + other.dyadic)
        return Exponent.approximate(self.value + other.value)

    def scaled_pow2(self, k: int) -> "Exponent":
        if self.is_exact:
            return Exponent.exact(self.dyadic.scaled_pow2(k))
        return Exponent.approximate(self.approx * (2.0**k))

    def times_dyadic(self, m: Dyadic) -> "Exponent":
        if self.is_exact:
            return Exponent.exact(self.dyadic * m)
        return Exponent.approximate(self.approx * float(m))

    def times_float(self, factor: float) -> "Exponent":
        """Scaling by a generic real: the result is approximate."""
        return Exponent.approximate(self.value * factor)

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
# The normal form shared by LaurentPoly and OpExpr (README, "Normal form"):
# a sum of terms c * P^mu * D^beta * T^alpha held column by column, as a
# struct of arrays (Python lists):
#
#   _re, _im   coefficient parts, floats
#   _val       exponent values, floats, in three rows MU, BETA, ALPHA
#   _exact     which exponents are exact dyadics, in the same three rows
#   _num       exact exponents as integer numerators over 2**_den, 0 where
#              approximate, in the same three rows
#
# A row of exact zeros is None in all three, so a LaurentPoly carries only
# its alpha row.  An exact exponent's value is its numerator rounded once to
# a float.  _den need not be minimal: Dyadic reduces each exponent when
# terms() builds it.

MU, BETA, ALPHA = 0, 1, 2
_ZERO = Exponent.exact(0)  # the Exponent.of(0) every caller shares


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
    """Columns of coefficients (numbers) and three rows (mu, beta, alpha) of
    exponent-likes; a row given as None is all exact zeros."""
    rows, den = [row if row is None else list(map(_split, row)) for row in rows], 0
    for row in rows:  # loops and appends: cheaper than comprehensions on short rows
        for _, m in row or ():
            if m and m > den:
                den = m
    num, val, exact, re, im = [None] * 3, [None] * 3, [None] * 3, [], []
    for r, row in enumerate(rows):
        if row is not None:
            num[r], val[r], exact[r] = nr, vr, xr = [], [], []
            for k, m in row:
                nr.append(0 if m is None else k << den - m)
                vr.append(k if m is None else k / (1 << m))
                xr.append(m is not None)
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


def _merged(re, im, num, den, val, exact, merge: bool = True) -> tuple:
    """Snap, order, merge and prune raw columns.

    Every exponent takes its cluster's representative, terms are ordered by
    descending (beta, mu, alpha) cluster, stably, and the coefficients of
    equal words are added in that order; then |c| < COEFF_PRUNE_TOL goes and
    rows left all exact zeros become None.  A row of exact exponents needs
    no snapping: its numerators are its clusters.
    """
    n = len(re)
    if merge and n > 1:
        # rep_of[r][t]: the entry t takes; None for a constant row, True for an exact one
        rep_of, keys, snapped = [None] * 3, [], False
        for r in (BETA, MU, ALPHA):
            v, x, k = val[r], exact[r], num[r]
            if x is None:  # exact zeros
                continue
            if x.count(True) == n:  # each entry its own representative
                if k.count(k[0]) < n:
                    keys.append(k)
                    rep_of[r] = True
            elif x.count(True) or v.count(v[0]) < n:  # else nothing to snap
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
        re, im, m = re_out, im_out, len(firsts)
        if snapped or firsts != list(range(n)):  # else the rows stand as they are
            num, val, exact = [*num], [*val], [*exact]
            for r, reps in enumerate(rep_of):
                if num[r] is not None:
                    pick = firsts if reps is True else reps and list(map(reps.__getitem__, firsts))
                    for a in (num, val, exact):
                        a[r] = a[r][:m] if pick is None else list(map(a[r].__getitem__, pick))
    if re and min(map(abs, re)) < COEFF_PRUNE_TOL:  # else no |c| can be below it
        keep = [abs(complex(r, i)) >= COEFF_PRUNE_TOL for r, i in zip(re, im)]
        re, im = [x for x, k in zip(re, keep) if k], [x for x, k in zip(im, keep) if k]
        num, val, exact = ([row and [x for x, k in zip(row, keep) if k] for row in a]
                           for a in (num, val, exact))
    for r in (MU, BETA, ALPHA):
        if exact[r] is not None and not any(num[r]) and all(exact[r]):
            num, val, exact = [*num], [*val], [*exact]
            num[r] = val[r] = exact[r] = None
    return re, im, num, den, val, exact


def _compose_translations(a: "_NormalForm", b: "_NormalForm") -> tuple:
    """_compose for pure translations: (c1 T^a1)(c2 T^a2) = c1 c2 T^(a1 + a2)."""
    den = max(a._den, b._den)
    sa, sb, unit = den - a._den, den - b._den, 1 << den
    re, im, num, val, exact = [], [], [], [], []
    terms_b = list(zip(b._re, b._im, *b._row(ALPHA)))
    for r1, i1, k1, v1, x1 in zip(a._re, a._im, *a._row(ALPHA)):
        k1 <<= sa
        for r2, i2, k2, v2, x2 in terms_b:
            re.append(r1 * r2 - i1 * i2)
            im.append(r1 * i2 + i1 * r2)
            x = x1 and x2
            num.append(k1 + (k2 << sb) if x else 0)
            val.append(num[-1] / unit if x else v1 + v2)
            exact.append(x)
    return re, im, [None, None, num], den, [None, None, val], [None, None, exact]


def _compose(a: "_NormalForm", b: "_NormalForm") -> tuple:
    """Raw columns of every product a_i b_j, in row-major (i, j) order:

        (c1 P^m1 D^b1 T^a1)(c2 P^m2 D^b2 T^a2)
            = c1 c2 e^{i m2 a1} P^(m1 + 2^b1 m2) D^(b1+b2) T^(2^b2 a1 + a2)

    The phase factor is applied only where m2 and a1 are both nonzero; 2^b x
    is exact when x is exact and b an exact integer, or x is exactly 0.
    2.0**b is taken once per term, and again only where it is 0 or overflows
    a float, for a nonzero x.
    """
    ka, kb = ([k >> f._den if x and not k & ((1 << f._den) - 1) else None  # exact integer betas
               for k, _, x in zip(*f._row(BETA))] for f in (a, b))
    den = max(a._den, b._den) - min([0] + [k for k in ka + kb if k is not None])
    sa, sb = den - a._den, den - b._den
    (na, va, xa), (nb, vb, xb) = (zip(*map(f._row, (MU, BETA, ALPHA))) for f in (a, b))
    pa, pb = ([2.0**v if v < 1024.0 else None for v in vals[BETA]] for vals in (va, vb))
    unit = 1 << den
    out = []
    terms_b = list(zip(b._re, b._im, *nb, *vb, *xb, pb, kb))
    for r1, i1, m1, b1, a1, vm1, vb1, va1, xm1, xb1, xa1, p1, k1 in zip(
            a._re, a._im, *na, *va, *xa, pa, ka):
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


def _exponents(num: list, val: list, exact: list, den: int, n: int) -> list:
    """Exponent objects of one row of n terms, one object per distinct value."""
    if num is None:
        return [_ZERO] * n
    made, out = {}, []
    for k, v, x in zip(num, val, exact):
        key = (x, k if x else v)
        if key not in made:
            made[key] = Exponent.exact(Dyadic(k, den)) if x else Exponent.approximate(v)
        out.append(made[key])
    return out


def _is_scalar(x) -> bool:
    return isinstance(x, (int, float, complex))


class _NormalForm:
    """Normalized sum of terms, immutable by convention (only private slots
    exist): the arithmetic of LaurentPoly and OpExpr, which build their own
    term tuples in terms()."""

    __slots__ = ("_re", "_im", "_num", "_den", "_val", "_exact", "_terms")

    def _assign(self, columns: tuple) -> None:
        self._re, self._im, self._num, self._den, self._val, self._exact = columns
        self._terms = None

    @classmethod
    def _normal(cls, *columns, merge: bool = True):
        """A normalized instance of raw columns."""
        out = object.__new__(cls)
        out._assign(_merged(*columns, merge=merge))
        return out

    @classmethod
    def _constant(cls, c: complex):
        c = complex(c)
        return cls._normal([c.real], [c.imag], [None] * 3, 0, [None] * 3, [None] * 3)

    def _rows(self) -> tuple:
        """The coefficients, then the Exponent objects of each row."""
        return (list(map(complex, self._re, self._im)),
                *(_exponents(*row, self._den, len(self._re))
                  for row in zip(self._num, self._val, self._exact)))

    def _row(self, r: int) -> tuple:
        """Row r as (numerators, values, exact flags), a None row filled in."""
        if self._num[r] is not None:
            return self._num[r], self._val[r], self._exact[r]
        n = len(self._re)
        return [0] * n, [0.0] * n, [True] * n

    def __len__(self):
        return len(self._re)

    def is_zero(self) -> bool:
        return not self._re

    def max_abs_coeff(self) -> float:
        return max(map(abs, map(complex, self._re, self._im)), default=0.0)

    def isclose(self, other, tol: float = 1e-12) -> bool:
        return (self - other).max_abs_coeff() <= tol

    def _coerce(self, other):
        if _is_scalar(other):
            return self._constant(other)
        return other if type(other) is type(self) else None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = max(self._den, other._den)
        num, val, exact = [None] * 3, [None] * 3, [None] * 3
        for r in (MU, BETA, ALPHA):
            if self._num[r] is not None or other._num[r] is not None:
                (p, u, x), (q, v, y) = self._row(r), other._row(r)
                p = [k << den - self._den for k in p] if self._den < den else p
                q = [k << den - other._den for k in q] if other._den < den else q
                num[r], val[r], exact[r] = p + q, u + v, x + y
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
        if _is_scalar(other):
            c, pairs = complex(other), list(zip(self._re, self._im))
            return self._normal([x * c.real - y * c.imag for x, y in pairs],
                                [x * c.imag + y * c.real for x, y in pairs],
                                self._num, self._den, self._val, self._exact, merge=False)
        if type(other) is not type(self):
            return NotImplemented
        if not (self._re and other._re):
            return self._constant(0.0)
        pure = [None, None] == self._num[:ALPHA] == other._num[:ALPHA]  # translations
        return self._normal(*(_compose_translations if pure else _compose)(self, other))

    def __rmul__(self, other):
        return self * other if _is_scalar(other) else NotImplemented

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
            for (pn, pv, px), (qn, qv, qx) in zip(map(self._row, (MU, BETA, ALPHA)),
                                                  map(other._row, (MU, BETA, ALPHA)))
            for p, q, u, v, x, y in zip(pn, qn, pv, qv, px, qx))

    __hash__ = None

    def __str__(self):
        pieces = []
        for i, (c, *exps) in enumerate(zip(*self._rows())):
            body, negative = _term_text(c, zip("PDT", exps))
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

    The mu = beta = 0 case of the shared normal form: exponents strictly
    descending, coefficients with |c| < COEFF_PRUNE_TOL removed, exponents
    equal under the merge rule combined.  All operations return new
    normalized instances.
    """

    __slots__ = ()

    def __init__(self, terms=()):
        alpha, coeffs = list(zip(*terms)) or ((), ())
        self._assign(_merged(*_columns(coeffs, [None, None, alpha])))

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
    def term(coeff: complex, exponent) -> "LaurentPoly":
        (k, m), c = _split(exponent), complex(coeff)  # _columns of one term, spelled out
        x = m is not None
        return LaurentPoly._normal([c.real], [c.imag], [None, None, [k if x else 0]], m or 0,
                                   [None, None, [k / (1 << m) if x else k]], [None, None, [x]])

    @staticmethod
    def from_dict(d: dict) -> "LaurentPoly":
        """Build from {exponent-like: coeff}; handy in tests."""
        return LaurentPoly(d.items())

    # -- inspection ------------------------------------------------------

    def terms(self) -> tuple:
        """(Exponent, complex) pairs, exponents descending; built once."""
        if self._terms is None:
            coeffs, _, _, alpha = self._rows()
            self._terms = tuple(zip(alpha, coeffs))
        return self._terms

    def coeff_at(self, exponent) -> complex:
        target = Exponent.of(exponent)
        for e, c in self.terms():
            if e == target:
                return c
        return 0j

    # -- the operations the rest of the package needs ---------------------

    def substitute_power(self, m) -> "LaurentPoly":
        """T -> T^m: multiply every exponent by m (integer or Dyadic), m != 0."""
        if (m.num if isinstance(m, Dyadic) else float(m)) == 0:
            raise ValueError("substitution power must be nonzero")
        return self.substitute_scaled(m, 0.0)

    def substitute_scaled(self, m, phase: float) -> "LaurentPoly":
        """T -> e^{i*phase} T^m: exponents scale by m, coefficients pick up
        e^{i*phase*alpha}.  phase == 0 keeps coefficients bit-identical."""
        m = Dyadic(m) if isinstance(m, int) else m
        out = []
        for e, c in self.terms():
            if phase != 0.0:
                c = c * cmath.exp(1j * phase * e.value)
            out.append((e.times_dyadic(m) if isinstance(m, Dyadic) else e.times_float(float(m)), c))
        return LaurentPoly(out)

    def eval_phase(self, lam: complex) -> complex:
        """Evaluate with T^alpha -> e^{lam * alpha}.

        Raises EvaluationOverflowError when any |Re(lam*alpha)| exceeds
        PHASE_OVERFLOW_LIMIT instead of returning inf.
        """
        lam = complex(lam)
        total = 0j
        for alpha, re, im in zip(self._row(ALPHA)[1], self._re, self._im):
            z = lam * alpha
            if abs(z.real) > PHASE_OVERFLOW_LIMIT:
                raise EvaluationOverflowError(f"evaluation overflow: Re(lambda*alpha) = {z.real!r}")
            total += complex(re, im) * cmath.exp(z)
        return total


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

"""Normal-form algebra of phase/dilation/translation operators.

Every operator here is a finite sum of terms

    c * P^mu * D^beta * T^alpha

acting on functions of one real variable as

    (P^mu f)(x) = e^{i mu x} f(x)
    (D^beta f)(x) = f(2^beta x)
    (T^alpha f)(x) = f(x + alpha)

Composition stays inside this normal form:

    (c1 P^m1 D^b1 T^a1)(c2 P^m2 D^b2 T^a2)
        = c1 c2 e^{i m2 a1} P^(m1 + 2^b1 m2) D^(b1+b2) T^(2^b2 a1 + a2)

The phase factor is skipped (kept exactly 1) when m2 or a1 is zero, and
exponent rescaling by 2^b is done by exact shifts when b is an exact
integer, so products of translation/dilation words with dyadic data are
bit-exact.  D^beta carries no amplitude factor, so a mask with
sum C_k = 2 conserves mass.

The columns, the composition and the merge rule live in the normal-form core
of `laurent`; an OpExpr holds three exponent rows (mu, beta, alpha), a
LaurentPoly only the alpha row.
"""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple

from .laurent import (
    ALPHA,
    BETA,
    MU,
    Exponent,
    LaurentPoly,
    _columns,
    _compose,
    _merged,
    _NormalForm,
    _own_arithmetic,
)

class OpTerm(NamedTuple):
    coeff: complex
    mu: Exponent
    beta: Exponent
    alpha: Exponent


_op_term = functools.partial(tuple.__new__, OpTerm)  # past the Python-level __new__


@_own_arithmetic
class OpExpr(_NormalForm):
    """Normalized sum of OpTerms; immutable, supports ring arithmetic."""

    __slots__ = ()
    _ORDER = (BETA, MU, ALPHA)
    _SYMBOLS = "PDT"
    _product = _compose

    def __init__(self, terms: Iterable[OpTerm] = ()):
        coeffs, *rows = list(zip(*terms)) or [(), (), (), ()]  # OpTerm fields, transposed
        self._assign(_merged(self._ORDER, *_columns(coeffs, rows)))

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero() -> "OpExpr":
        return OpExpr()

    @staticmethod
    def identity() -> "OpExpr":
        return OpExpr._constant(1.0)

    @staticmethod
    def scalar(c: complex) -> "OpExpr":
        return OpExpr._constant(c)

    @staticmethod
    def term(coeff: complex, mu=0, beta=0, alpha=0) -> "OpExpr":
        return OpExpr._normal(*_columns([coeff], [[mu], [beta], [alpha]]))

    @staticmethod
    def translation(alpha) -> "OpExpr":
        return OpExpr.term(1.0, alpha=alpha)

    @staticmethod
    def dilation(beta) -> "OpExpr":
        return OpExpr.term(1.0, beta=beta)

    @staticmethod
    def from_laurent(p: LaurentPoly) -> "OpExpr":
        """A pure translation polynomial g(T): its alpha row under two rows of exact zeros."""
        n, out = len(p), object.__new__(OpExpr)
        out._assign((p._re, p._im, [[0] * n, [0] * n, *p._num], p._den,
                     [[0.0] * n, [0.0] * n, *p._val], [[True] * n, [True] * n, *p._exact]))
        return out

    # -- inspection ------------------------------------------------------

    def terms(self) -> tuple[OpTerm, ...]:
        """The terms in normal-form order; built once."""
        if self._terms is None:
            self._terms = tuple(map(_op_term, zip(*self._rows())))
        return self._terms

    def is_translation_only(self) -> bool:
        return not (any(self._val[MU]) or any(self._val[BETA]))

    def to_laurent(self) -> LaurentPoly:
        if not self.is_translation_only():
            raise ValueError("operator has dilation or phase parts")
        return LaurentPoly._normal(self._re, self._im, [self._num[ALPHA]], self._den,
                                   [self._val[ALPHA]], [self._exact[ALPHA]])


def commutator(a: OpExpr, b: OpExpr) -> OpExpr:
    return a * b - b * a

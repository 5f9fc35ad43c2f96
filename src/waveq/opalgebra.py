"""Normal-form algebra of phase/dilation/translation operators.

Every operator here is a finite sum of terms

    c * P^mu * D^beta * T^alpha

acting on functions of one real variable as

    (P^mu f)(x) = e^{i mu x} f(x)
    (D^beta f)(x) = sigma(beta) f(2^beta x)      (sigma set at application time)
    (T^alpha f)(x) = f(x + alpha)

Composition stays inside this normal form:

    (c1 P^m1 D^b1 T^a1)(c2 P^m2 D^b2 T^a2)
        = c1 c2 e^{i m2 a1} P^(m1 + 2^b1 m2) D^(b1+b2) T^(2^b2 a1 + a2)

The phase factor is skipped (kept exactly 1) when m2 or a1 is zero, and
exponent rescaling by 2^b is done by exact shifts when b is an exact
integer, so products of translation/dilation words with dyadic data are
bit-exact.  The sigma prefactor never enters composition: all three
supported conventions are exponential in beta, so they factor out of any
product and are applied only when an operator meets an actual function.

The columns, the composition and the merge rule live in the normal-form core
of `laurent`; a LaurentPoly is the mu = beta = 0 case of an OpExpr.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .laurent import (
    ALPHA,
    BETA,
    MU,
    Dyadic,
    Exponent,
    LaurentPoly,
    _columns,
    _merged,
    _NormalForm,
    _own_arithmetic,
)

DILATION_CONVENTIONS = ("one", "paper", "unitary")


def dilation_prefactor(convention: str, beta: float) -> float:
    """sigma(beta) for the named convention; exponential in beta by design."""
    if convention == "one":
        return 1.0
    if convention == "paper":
        return 2.0**beta
    if convention == "unitary":
        return 2.0 ** (beta / 2.0)
    raise ValueError(
        f"unknown dilation convention {convention!r}; pick one of {DILATION_CONVENTIONS}"
    )


class OpTerm(NamedTuple):
    coeff: complex
    mu: Exponent
    beta: Exponent
    alpha: Exponent


@_own_arithmetic
class OpExpr(_NormalForm):
    """Normalized sum of OpTerms; immutable, supports ring arithmetic."""

    __slots__ = ()

    def __init__(self, terms: Iterable[OpTerm] = ()):
        coeffs, *rows = list(zip(*terms)) or [(), (), (), ()]  # OpTerm fields, transposed
        self._assign(_merged(*_columns(coeffs, rows)))

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
    def translation(alpha, coeff: complex = 1.0) -> "OpExpr":
        return OpExpr.term(coeff, alpha=alpha)

    @staticmethod
    def dilation(beta, coeff: complex = 1.0) -> "OpExpr":
        return OpExpr.term(coeff, beta=beta)

    @staticmethod
    def phase(mu, coeff: complex = 1.0) -> "OpExpr":
        return OpExpr.term(coeff, mu=mu)

    @staticmethod
    def from_laurent(p: LaurentPoly) -> "OpExpr":
        """A pure translation polynomial g(T)."""
        out = object.__new__(OpExpr)
        out._assign((p._re, p._im, p._num, p._den, p._val, p._exact))
        return out

    # -- inspection ------------------------------------------------------

    def terms(self) -> tuple[OpTerm, ...]:
        """The terms in normal-form order; built once."""
        if self._terms is None:
            self._terms = tuple(map(OpTerm, *self._rows()))
        return self._terms

    def is_translation_only(self) -> bool:
        return not (any(self._val[MU] or ()) or any(self._val[BETA] or ()))

    def to_laurent(self) -> LaurentPoly:
        if not self.is_translation_only():
            raise ValueError("operator has dilation or phase parts")
        num, val, exact = ([None, None, a[ALPHA]] for a in (self._num, self._val, self._exact))
        return LaurentPoly._normal(self._re, self._im, num, self._den, val, exact, merge=False)


def commutator(a: OpExpr, b: OpExpr) -> OpExpr:
    return a * b - b * a


def translation_sum(count: int, step) -> OpExpr:
    """1 + T^step + T^(2 step) + ... + T^((count-1) step), exact for dyadic step."""
    step = Exponent.of(step)
    alphas = [step.times_dyadic(Dyadic(k)) for k in range(count)]
    return OpExpr._normal(*_columns([1.0] * count, [None, None, alphas]))

import cmath
import random

import pytest

from waveq.laurent import Dyadic, Exponent, LaurentPoly
from waveq.opalgebra import OpExpr, commutator


def apply_expr(expr, f):
    """Pointwise action, (D^beta f)(x) = f(2^beta x): reference semantics for the algebra.

    Kept independent of the package's own application code on purpose; the
    composition rule is validated against this and nothing else.
    """

    def applied(x):
        total = 0j
        for t in expr.terms():
            total += (
                t.coeff
                * cmath.exp(1j * t.mu.value * x)
                * f(2.0 ** t.beta.value * x + t.alpha.value)
            )
        return total

    return applied


def smooth(x):
    return cmath.exp(0.37j * x) + 1.0 / (1.0 + x * x)


def test_composition_matches_pointwise_application():
    rng = random.Random(11)

    def rand_expr():
        terms = OpExpr.zero()
        for _ in range(rng.randrange(1, 4)):
            terms = terms + OpExpr.term(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                mu=rng.uniform(-2, 2),
                beta=rng.uniform(-1.5, 1.5),
                alpha=rng.uniform(-2, 2),
            )
        return terms

    for _ in range(80):
        a, b = rand_expr(), rand_expr()
        ab = a * b
        for _ in range(4):
            x = rng.uniform(-3, 3)
            direct = apply_expr(ab, smooth)(x)
            nested = apply_expr(a, apply_expr(b, smooth))(x)
            assert abs(direct - nested) <= 1e-10 * max(1.0, abs(nested))


def test_translation_past_phase_picks_up_scalar():
    a, m = 0.7, 1.3
    lhs = OpExpr.translation(a) * OpExpr.term(1.0, mu=m)
    rhs = OpExpr.term(1.0, mu=m) * OpExpr.translation(a) * cmath.exp(1j * m * a)
    assert (lhs - rhs).max_abs_coeff() <= 1e-15


def test_dilation_conjugates_translation_exactly():
    conj = OpExpr.dilation(1) * OpExpr.translation(Dyadic(1)) * OpExpr.dilation(-1)
    assert conj == OpExpr.translation(Dyadic(1, 1))
    (t,) = conj.terms()
    assert t.alpha.is_exact and t.coeff == 1.0


def test_dilation_translation_word_normalizes():
    # T^-1 D = D T^-2 in normal form
    e = OpExpr.translation(-1) * OpExpr.dilation(1)
    (t,) = e.terms()
    assert t.beta.dyadic == Dyadic(1)
    assert t.alpha.dyadic == Dyadic(-2)


def test_halving_cascade_word_power():
    """[D(1+T^-1)]^n = D^n (1 + T^-1 + ... + T^-(2^n-1)), exactly."""
    step = OpExpr.dilation(1) * (OpExpr.identity() + OpExpr.translation(-1))
    for n in range(1, 9):
        expanded = step**n
        expected = OpExpr.dilation(n) * sum(
            (OpExpr.translation(-k) for k in range(2**n)), OpExpr.zero()
        )
        assert expanded == expected
        assert len(expanded) == 2**n
        assert all(t.alpha.is_exact and t.coeff == 1.0 for t in expanded.terms())


def test_difference_intertwines_dilation_power_exactly():
    """(1 - T^-1) D^n equals (1 - T^(-2^-n)) [D(1+T^-1)]^n with zero error."""
    one = OpExpr.identity()
    word = OpExpr.dilation(1) * (one + OpExpr.translation(-1))
    for n in range(1, 9):
        lhs = (one - OpExpr.translation(-1)) * OpExpr.dilation(n)
        rhs = (one - OpExpr.translation(Dyadic(-1, n))) * word**n
        diff = lhs - rhs
        assert len(diff) == 0
        assert diff.max_abs_coeff() == 0.0


def test_jacobi_identity_random():
    rng = random.Random(23)

    def rand_expr():
        out = OpExpr.zero()
        for _ in range(rng.randrange(1, 3)):
            out = out + OpExpr.term(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                mu=rng.choice([0, 0.5, -1.0]),
                beta=rng.randrange(-1, 2),
                alpha=rng.choice([Dyadic(1, 1), Dyadic(-1), Dyadic(3, 2)]),
            )
        return out

    for _ in range(60):
        a, b, c = rand_expr(), rand_expr(), rand_expr()
        j = (
            commutator(commutator(a, b), c)
            + commutator(commutator(b, c), a)
            + commutator(commutator(c, a), b)
        )
        assert j.max_abs_coeff() <= 1e-13


def test_scalars_and_linearity():
    a = OpExpr.term(2.0, alpha=1)
    assert a * 0.5 == 0.5 * a == OpExpr.translation(1)
    assert len(a - a) == 0
    assert (a + 1).terms()[-1].coeff == 1.0
    assert a**0 == OpExpr.identity()
    with pytest.raises(ValueError):
        a**-1


def test_laurent_round_trip():
    p = LaurentPoly.from_dict({0: 0.5, Dyadic(-1, 1): 1.0, -1: 0.5})
    e = OpExpr.from_laurent(p)
    assert e.is_translation_only()
    assert (e.to_laurent() - p).max_abs_coeff() == 0.0
    with pytest.raises(ValueError):
        (OpExpr.dilation(1) * e).to_laurent()


def test_debug_text():
    e = OpExpr.term(0.5, beta=-1) * (OpExpr.identity() + OpExpr.translation(1))
    s = str(e)
    assert "D^-1" in s and "T^1" in s
    assert str(OpExpr.zero()) == "0"
    assert str(OpExpr.term(-1.0, mu=Dyadic(1, 1))) == "-P^1/2"

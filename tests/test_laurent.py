import cmath
import math
import random

import pytest

from waveq.laurent import (
    ApproximateExponentWarning,
    Dyadic,
    EvaluationOverflowError,
    Exponent,
    LaurentParseError,
    LaurentPoly,
    parse_laurent,
)


# -- dyadic rationals --------------------------------------------------------


def test_dyadic_canonical_form():
    assert Dyadic(4, 2) == Dyadic(1, 0)
    assert Dyadic(6, 1) == Dyadic(3, 0)
    assert Dyadic(0, 7) == Dyadic(0, 0)
    d = Dyadic(3, 2)
    assert d.num == 3 and d.log2_den == 2
    assert float(d) == 0.75


def test_dyadic_arithmetic_exact():
    half = Dyadic(1, 1)
    assert half + half == Dyadic(1)
    assert half - Dyadic(1) == Dyadic(-1, 1)
    assert half * Dyadic(3, 2) == Dyadic(3, 3)
    assert Dyadic(5, 3).scaled_pow2(3) == Dyadic(5)
    assert Dyadic(5).scaled_pow2(-2) == Dyadic(5, 2)
    assert Dyadic(1, 1) < Dyadic(3, 2)
    assert Dyadic(-1) < Dyadic(0)


def test_dyadic_from_float():
    assert Dyadic.from_float(0.625) == Dyadic(5, 3)
    assert Dyadic.from_float(-3.0) == Dyadic(-3)
    # 1/3 is not dyadic at any denominator bound
    assert Dyadic.from_float(1.0 / 3.0) is None
    assert Dyadic.from_float(float("nan")) is None


def test_dyadic_random_field_laws():
    rng = random.Random(20260822)
    for _ in range(300):
        a = Dyadic(rng.randrange(-50, 50), rng.randrange(0, 6))
        b = Dyadic(rng.randrange(-50, 50), rng.randrange(0, 6))
        c = Dyadic(rng.randrange(-50, 50), rng.randrange(0, 6))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert float(a * b) == pytest.approx(float(a) * float(b), abs=1e-12)


# -- exponents ---------------------------------------------------------------


def test_exponent_exact_vs_approx_equality():
    e1 = Exponent.exact(Dyadic(1, 1))
    e2 = Exponent.approximate(0.5)
    e3 = Exponent.approximate(0.5 + 5e-13)
    assert e1 == e2
    assert e2 == e3
    # exact-exact equality is strict even when values are within tolerance
    tiny = Exponent.exact(Dyadic(1, 40))
    assert tiny != Exponent.exact(0)


def test_exponent_is_unhashable():
    with pytest.raises(TypeError):
        hash(Exponent.exact(0))


def test_exponent_arithmetic_keeps_exactness():
    e = Exponent.exact(Dyadic(3, 1))
    assert e.scaled_pow2(-4).is_exact
    assert e.scaled_pow2(-4).dyadic == Dyadic(3, 5)
    # substitution by a generic real makes every exponent approximate
    ((scaled, _),) = LaurentPoly([(e, 1.0)]).substitute_scaled(0.3, 0.0).terms()
    assert not scaled.is_exact and scaled.value == 1.5 * 0.3


# -- polynomial arithmetic ---------------------------------------------------


def test_square_of_one_plus_half_shift():
    """(1 + T^-1/2)^2 = 1 + 2 T^-1/2 + T^-1, with exact exponents."""
    p = LaurentPoly.from_dict({0: 1, Dyadic(-1, 1): 1})
    sq = p * p
    assert len(sq) == 3
    assert sq.coeff_at(0) == 1
    assert sq.coeff_at(Dyadic(-1, 1)) == 2
    assert sq.coeff_at(-1) == 1
    assert all(e.is_exact for e, _ in sq.terms())


def test_merge_keeps_exact_representative():
    p = LaurentPoly([(Exponent.exact(Dyadic(1, 1)), 1.0), (Exponent.approximate(0.5), 2.0)])
    assert len(p) == 1
    (e, c), = p.terms()
    assert e.is_exact and e.dyadic == Dyadic(1, 1)
    assert c == 3.0


def test_tiny_coefficients_prune():
    p = LaurentPoly.from_dict({0: 1.0}) - LaurentPoly.from_dict({0: 1.0 - 1e-16})
    assert len(p) == 0


def test_substitute_power():
    p = LaurentPoly.from_dict({1: 1, -1: 1})
    q = p.substitute_power(Dyadic(1, 1))
    assert q.coeff_at(Dyadic(1, 1)) == 1
    assert q.coeff_at(Dyadic(-1, 1)) == 1
    r = p.substitute_power(-2)
    assert r.coeff_at(-2) == 1 and r.coeff_at(2) == 1
    with pytest.raises(ValueError):
        p.substitute_power(0)


def test_substitute_scaled_phase():
    # T -> e^{i pi} T doubles as a sign flip on odd exponents
    p = LaurentPoly.from_dict({1: 1, 0: 1, -1: 1})
    q = p.substitute_scaled(1, math.pi)
    assert abs(q.coeff_at(1) + 1) < 1e-15
    assert abs(q.coeff_at(0) - 1) < 1e-15
    assert abs(q.coeff_at(-1) + 1) < 1e-15


def test_eval_phase_cosine():
    p = LaurentPoly.from_dict({1: 0.5, -1: 0.5})
    v = p.eval_phase(1j * math.pi / 3)
    assert abs(v - 0.5) < 1e-15
    assert abs(p.eval_phase(1j * math.pi / 2)) < 1e-15


def test_eval_phase_overflow():
    p = LaurentPoly.from_dict({1000: 1.0})
    with pytest.raises(EvaluationOverflowError):
        p.eval_phase(1.0)
    # imaginary lambda never overflows
    assert abs(p.eval_phase(1j * 0.001)) == pytest.approx(1.0)


def test_ring_laws_random():
    rng = random.Random(7)

    def rand_poly():
        n = rng.randrange(1, 5)
        terms = {}
        for _ in range(n):
            e = Dyadic(rng.randrange(-8, 9), rng.randrange(0, 3))
            terms[e] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        return LaurentPoly.from_dict(terms)

    for _ in range(120):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a * b - b * a).max_abs_coeff() <= 1e-13
        assert ((a * b) * c - a * (b * c)).max_abs_coeff() <= 1e-12
        assert (a * (b + c) - (a * b + a * c)).max_abs_coeff() <= 1e-12
        assert len(a - a) == 0


def test_lp_pow_matches_repeated_product():
    p = LaurentPoly.from_dict({0: 1, -1: 1})
    assert p**3 == p * p * p
    assert p**0 == LaurentPoly.one()


# -- parsing and printing ----------------------------------------------------


def test_parse_basic_sum():
    p = parse_laurent("1+T^-1")
    assert p.coeff_at(0) == 1 and p.coeff_at(-1) == 1


def test_parse_coeff_star_term_and_halves():
    p = parse_laurent("0.5 + T^-1/2 + 0.5*T^-1")
    assert p.coeff_at(0) == 0.5
    assert p.coeff_at(Dyadic(-1, 1)) == 1
    assert p.coeff_at(-1) == 0.5
    assert all(e.is_exact for e, _ in p.terms())


def test_parse_power_of_two_denominators():
    p = parse_laurent("T^-1/2^3 - 3/4*T^5/8")
    assert p.coeff_at(Dyadic(-1, 3)) == 1
    assert p.coeff_at(Dyadic(5, 3)) == -0.75


def test_parse_decimal_exponent_is_approximate():
    p = parse_laurent("T^0.3")
    (e, _), = p.terms()
    assert not e.is_exact
    assert e.value == pytest.approx(0.3)


def test_parse_non_dyadic_rational_exponent_warns():
    with pytest.warns(ApproximateExponentWarning):
        p = parse_laurent("T^1/3")
    (e, _), = p.terms()
    assert not e.is_exact
    assert e.value == pytest.approx(1 / 3)


def test_parse_rational_coefficient():
    p = parse_laurent("2/3*T^1 - 1/3")
    assert p.coeff_at(1) == pytest.approx(2 / 3)
    assert p.coeff_at(0) == pytest.approx(-1 / 3)


PARSE_REFUSALS = [  # text, message, 0-based position
    ("", "empty input", 0),
    ("1 2", "expected '+' or '-'", 2),
    ("2T", "expected '+' or '-'", 1),
    ("1+", "dangling sign", 2),
    ("x", "unexpected character 'x'", 0),
    ("1/", "expected denominator", 2),
    ("1/2.5", "expected integer denominator", 2),
    ("1/0", "zero denominator", 2),
    ("2*x", "expected T after '*'", 2),
    ("T1", "expected '^' after T", 1),
    ("T^x", "expected exponent", 2),
    ("T^^2", "expected exponent", 2),
    ("T^1.5/2", "rational exponent needs an integer numerator", 2),
    ("T^1/2^", "expected digits", 6),
    ("T^1/0", "zero denominator", 4),
    ("T^²", "expected exponent", 2),  # a digit to str.isdigit, but not a decimal digit
    ("1e400 + T^-1", "number beyond the float range", 0),
    ("1/2*T^1e400", "number beyond the float range", 6),
    ("1/" + "9" * 400, "number beyond the float range", 2),
    ("T^" + "9" * 400 + "/3", "exponent beyond the float range", 2),
    # more digits than Python converts to an int (sys.get_int_max_str_digits)
    ("T^" + "1" * 5000, "integer of 5000 digits is too long", 2),
    ("T^-" + "1" * 5000 + "/3", "integer of 5000 digits is too long", 3),
    ("T^1/" + "1" * 5000, "integer of 5000 digits is too long", 4),
    ("T^1/2^" + "1" * 5000, "integer of 5000 digits is too long", 6),
]


def test_parse_error_positions():
    for text, message, position in PARSE_REFUSALS:
        with pytest.raises(LaurentParseError) as err:
            parse_laurent(text)
        assert (str(err.value), err.value.position) == (f"{message} (position {position})",
                                                        position), text


def test_print_descending_with_dyadic_denominators():
    p = LaurentPoly.from_dict({Dyadic(-1, 1): 1.0, 1: 0.25, Dyadic(3, 2): -2.0})
    assert str(p) == "0.25*T^1 - 2*T^3/2^2 + T^-1/2"
    assert str(LaurentPoly.zero()) == "0"


def test_print_parse_roundtrip_random():
    """print -> parse is the identity on real-coefficient canonical forms."""
    rng = random.Random(41)
    for _ in range(150):
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            e = Dyadic(rng.randrange(-20, 21), rng.randrange(0, 4))
            terms[e] = rng.uniform(-3, 3)
        p = LaurentPoly.from_dict(terms)
        q = parse_laurent(str(p))
        assert (p - q).max_abs_coeff() == 0.0


def test_coefficient_lookup_and_substitution_read_the_private_rows(monkeypatch):
    p = LaurentPoly.from_dict({0: 1.0, Dyadic(-1, 1): 2.0 - 1j, 1.3: 0.5})
    lookups = [p.coeff_at(e) for e in (0, Dyadic(-1, 1), 1.3, 7)]
    scaled = p.substitute_scaled(2.0, 0.3)

    def no_terms(self):
        raise AssertionError("terms() was called")

    monkeypatch.setattr(LaurentPoly, "terms", no_terms)
    fresh = LaurentPoly.from_dict({0: 1.0, Dyadic(-1, 1): 2.0 - 1j, 1.3: 0.5})
    assert [fresh.coeff_at(e) for e in (0, Dyadic(-1, 1), 1.3, 7)] == lookups == [1, 2 - 1j, 0.5, 0]
    assert fresh.substitute_scaled(2.0, 0.3) == scaled
    assert fresh.substitute_power(-1).coeff_at(Dyadic(1, 1)) == 2 - 1j

"""Properties of the normal form shared by OpExpr and LaurentPoly.

Exact identities are checked against a composition rule on Fractions
written here, independent of the package:

    (c1 D^b1 T^a1)(c2 D^b2 T^a2) = c1 c2 D^(b1+b2) T^(2^b2 a1 + a2)

Coefficients are small dyadic rationals and mu = 0, so every product and
sum is exact in floating point and equality can be bit for bit.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from waveq.laurent import EXPONENT_MERGE_TOL, Dyadic, Exponent, LaurentPoly
from waveq.opalgebra import OpExpr, OpTerm, commutator, translation_sum

settings.register_profile("waveq", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("waveq")

dyadic = st.builds(Dyadic, st.integers(-24, 24), st.integers(0, 4))
coeff = st.integers(-8, 8).filter(bool).map(lambda k: k / 4)
word_term = st.tuples(coeff, st.integers(-2, 2), dyadic)  # (c, beta, alpha), mu = 0
word = st.lists(word_term, min_size=1, max_size=5)


def build(terms) -> OpExpr:
    out = OpExpr.zero()
    for c, beta, alpha in terms:
        out = out + OpExpr.term(c, beta=beta, alpha=alpha)
    return out


def fraction_word(terms) -> dict:
    out: dict = {}
    for c, beta, alpha in terms:
        key = (beta, Fraction(alpha.num, 2**alpha.log2_den))
        out[key] = out.get(key, 0) + Fraction(c)
    return {k: v for k, v in out.items() if v}


def fraction_product(p: dict, q: dict) -> dict:
    out: dict = {}
    for (b1, a1), c1 in p.items():
        for (b2, a2), c2 in q.items():
            key = (b1 + b2, a1 * Fraction(2) ** b2 + a2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def as_fractions(expr: OpExpr) -> dict:
    out = {}
    for t in expr.terms():
        assert t.mu.is_exact and t.mu.dyadic == Dyadic(0)
        assert t.beta.is_exact and t.alpha.is_exact and t.coeff.imag == 0.0
        d = t.alpha.dyadic
        out[(t.beta.dyadic.num, Fraction(d.num, 2**d.log2_den))] = Fraction(t.coeff.real)
    return out


@given(word, word)
def test_dyadic_products_match_the_fraction_rule(p, q):
    assert as_fractions(build(p) * build(q)) == fraction_product(fraction_word(p), fraction_word(q))


@given(word, word, word)
def test_ring_laws_hold_bit_for_bit_on_dyadic_words(p, q, r):
    a, b, c = build(p), build(q), build(r)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a
    assert (a - a).is_zero() and (a * 0).is_zero()
    assert a * OpExpr.identity() == a == OpExpr.identity() * a


@given(word)
def test_terms_are_strictly_ordered_words(p):
    keys = [(t.beta.value, t.mu.value, t.alpha.value) for t in build(p).terms()]
    assert keys == sorted(set(keys), reverse=True)


@given(st.lists(st.tuples(coeff, st.floats(-2, 2), st.floats(-1.5, 1.5), st.floats(-2, 2)),
                min_size=1, max_size=3), st.integers(0, 2))
def test_jacobi_identity_with_phases(spec, shift):
    ops = [OpExpr.term(c, mu=m, beta=b, alpha=a) for c, m, b, a in spec]
    a, b, c = ops[0], ops[shift % len(ops)] * 0.5 + 1, ops[-1] - OpExpr.translation(0.25)
    jacobi = (commutator(commutator(a, b), c) + commutator(commutator(b, c), a)
              + commutator(commutator(c, a), b))
    scale = max(1.0, a.max_abs_coeff() * b.max_abs_coeff() * c.max_abs_coeff())
    assert jacobi.max_abs_coeff() <= 1e-12 * scale


@given(st.lists(st.tuples(dyadic, coeff), min_size=1, max_size=5), st.integers(0, 4))
def test_laurent_power_is_repeated_product(pairs, n):
    p = LaurentPoly(pairs)
    expected = LaurentPoly.one()
    for _ in range(n):
        expected = expected * p
    assert p**n == expected


@given(st.lists(st.tuples(coeff, st.one_of(dyadic, st.floats(-2, 2))), min_size=1, max_size=4),
       st.lists(st.tuples(coeff, st.one_of(dyadic, st.floats(-2, 2))), min_size=1, max_size=4))
def test_translation_products_agree_with_the_general_composition(p, q):
    # a product of pure translations takes its own path; carrying a dilation
    # through the other factor sends the same product down the general one
    a, b = (sum((OpExpr.translation(e, c) for c, e in terms), OpExpr.zero()) for terms in (p, q))
    d = OpExpr.dilation(1)
    assert (a * b) * d == a * (b * d)
    assert OpExpr.from_laurent(a.to_laurent() * b.to_laurent()) == a * b


def test_large_dilation_shifts_stay_exact():
    (t,) = (OpExpr.translation(1) * OpExpr.dilation(70)).terms()
    assert t.alpha.is_exact and t.alpha.dyadic == Dyadic(2**70)
    steps = translation_sum(64, Dyadic(3, 2))
    assert steps * OpExpr.dilation(70) * OpExpr.dilation(-70) == steps
    conjugated = OpExpr.dilation(70) * steps * OpExpr.dilation(-70)
    assert conjugated == translation_sum(64, Dyadic(3, 72))


# -- the merge rule --------------------------------------------------------------


def approx(v: float) -> Exponent:
    return Exponent.approximate(v)


def test_chain_of_near_exponents_merges_into_its_first():
    step = 0.6 * EXPONENT_MERGE_TOL
    chain = [0.3 + k * step for k in range(4)]  # spans 1.8e-12 > tolerance
    p = LaurentPoly([(approx(v), 1.0) for v in reversed(chain)])
    ((e, c),) = p.terms()
    assert not e.is_exact and e.value == chain[0] and c == 4.0
    apart = LaurentPoly([(approx(0.3), 1.0), (approx(0.3 + 1.5 * EXPONENT_MERGE_TOL), 1.0)])
    assert len(apart) == 2


def test_exact_and_approximate_equal_values_merge_into_the_exact_one():
    for first, second in ((Exponent.exact(Dyadic(1, 1)), approx(0.5)),
                          (approx(0.5), Exponent.exact(Dyadic(1, 1)))):
        op = OpExpr([OpTerm(1.0, first, Exponent.exact(0), first),
                     OpTerm(2.0, second, Exponent.exact(0), second)])
        ((t),) = op.terms()
        assert t.mu.is_exact and t.alpha.is_exact and t.coeff == 3.0
    # a term of another word takes the exact representative as well
    op = OpExpr([OpTerm(1.0, Exponent.exact(0), Exponent.exact(0), approx(0.5)),
                 OpTerm(1.0, Exponent.exact(0), Exponent.exact(1), Exponent.exact(Dyadic(1, 1)))])
    assert all(t.alpha.is_exact for t in op.terms())


def test_distinct_exact_exponents_never_fuse():
    tiny = Dyadic(1, 40)  # 2^-40, far inside the merge tolerance
    p = LaurentPoly([(Exponent.exact(0), 1.0), (Exponent.exact(tiny), 1.0)])
    assert len(p) == 2
    # an approximate value between them joins the first exact one only
    q = LaurentPoly([(Exponent.exact(0), 1.0), (approx(2.0**-41), 2.0),
                     (Exponent.exact(tiny), 4.0)])
    assert [(e.dyadic, c) for e, c in q.terms()] == [(tiny, 4.0), (Dyadic(0), 3.0)]
    op = OpExpr.translation(0) + OpExpr.translation(tiny)
    assert len(op) == 2 and len(op * op) == 3


def test_exact_exponents_with_equal_floats_never_fuse():
    big = 2**60  # float(big + 1) == float(big)
    p = LaurentPoly.from_dict({big: 1, big + 1: 1})
    assert [(e.dyadic, c) for e, c in p.terms()] == [(Dyadic(big + 1), 1), (Dyadic(big), 1)]
    word = OpExpr.translation(1) * OpExpr.dilation(60) * (1 + OpExpr.translation(1))
    assert [t.alpha.dyadic for t in word.terms()] == [Dyadic(big + 1), Dyadic(big)]
    assert len(word * word) == 4
    # an approximate value equal to both floats joins one of them, not both
    q = LaurentPoly([(Exponent.exact(big), 1.0), (approx(float(big)), 2.0),
                     (Exponent.exact(big + 1), 4.0)])
    assert sorted(c.real for _, c in q.terms()) == [1.0, 6.0]


def test_dilations_beyond_the_float_range_compose():
    (t,) = (OpExpr.dilation(1100) * OpExpr.translation(1)).terms()
    assert t.beta.dyadic == Dyadic(1100) and t.alpha.dyadic == Dyadic(1)
    (t,) = (OpExpr.term(1.0, mu=0.3, beta=1100) * OpExpr.translation(1)).terms()
    assert t.mu.value == 0.3 and not t.mu.is_exact and t.beta.dyadic == Dyadic(1100)


def test_shared_arithmetic_is_bound_on_each_class():
    # per-class instrumentation such as bench/tracer.py reads vars(cls)
    for cls in (OpExpr, LaurentPoly):
        for name in ("__add__", "__sub__", "__mul__", "__rmul__", "__pow__", "__neg__",
                     "is_zero", "max_abs_coeff", "isclose"):
            assert name in vars(cls), (cls.__name__, name)

"""Properties of the normal form shared by OpExpr, LaurentPoly and ExpSum.

Exact identities are checked against a composition rule on Fractions
written here, independent of the package:

    (c1 D^b1 T^a1)(c2 D^b2 T^a2) = c1 c2 D^(b1+b2) T^(2^b2 a1 + a2)

Coefficients are small dyadic rationals and mu = 0, so every product and
sum is exact in floating point and equality can be bit for bit.
"""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveq import laurent
from waveq.gridfn import ExpSum
from waveq.laurent import (COEFF_PRUNE_TOL, EXPONENT_MERGE_TOL, Dyadic, Exponent, ExponentRangeError,
                           LaurentError, LaurentPoly, _clusters, _columns, _merged, parse_laurent)
from waveq.opalgebra import OpExpr, OpTerm, commutator

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
    # each type has one product: LaurentPoly adds its one exponent row, OpExpr
    # composes all three, and a dilation carried through one factor changes
    # which terms OpExpr's composition rescales
    a, b = (sum((OpExpr.translation(e, c) for c, e in terms), OpExpr.zero()) for terms in (p, q))
    d = OpExpr.dilation(1)
    assert (a * b) * d == a * (b * d)
    assert OpExpr.from_laurent(a.to_laurent() * b.to_laurent()) == a * b


def test_to_laurent_keeps_only_the_alpha_row():
    op = OpExpr.phase(0.1) * OpExpr.phase(-0.1) * OpExpr.translation(1)
    assert str(op) == "P^0*T^1"  # an approximate zero phase is still a phase
    assert str(op.to_laurent()) == "T^1"
    assert op.to_laurent() == LaurentPoly.from_dict({1: 1.0})


@given(word, word)
def test_each_type_holds_only_its_own_rows(p, q):
    a, b = build(p), build(q)
    symbol = LaurentPoly([(alpha, c) for c, _, alpha in p])
    forms = [(a * b, 3), (a - a, 3), (a + 1, 3), (OpExpr.from_laurent(symbol), 3),
             (symbol, 1), (symbol * symbol, 1), (OpExpr.from_laurent(symbol).to_laurent(), 1),
             (LaurentPoly.zero(), 1), (ExpSum(), 2), (ExpSum.exponential(1j) * 2 + 1, 2)]
    for form, rows in forms:
        assert len(form._num) == len(form._val) == len(form._exact) == rows
        assert all(len(row) == len(form) for row in form._num + form._val + form._exact)


def test_large_dilation_shifts_stay_exact():
    (t,) = (OpExpr.translation(1) * OpExpr.dilation(70)).terms()
    assert t.alpha.is_exact and t.alpha.dyadic == Dyadic(2**70)
    def steps(log2_den):  # 1 + T^step + ... + T^(63 step), step = 3 / 2^log2_den
        return sum((OpExpr.translation(Dyadic(3 * k, log2_den)) for k in range(64)), OpExpr.zero())

    assert steps(2) * OpExpr.dilation(70) * OpExpr.dilation(-70) == steps(2)
    assert OpExpr.dilation(70) * steps(2) * OpExpr.dilation(-70) == steps(72)


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


def test_nan_coefficients_are_kept_first_last_and_alone():
    """Exactly the terms with |c| < COEFF_PRUNE_TOL go; a NaN in either part
    stays, wherever the merge order puts it, and does not shield a prunable term."""
    nan = float("nan")
    for c in (complex(nan, 0.0), complex(0.0, nan), complex(nan, nan)):
        (alone,) = OpExpr.term(c).terms()
        assert cmath.isnan(alone.coeff)
        for shift in (3, -3):  # terms run by descending alpha: first, then last
            op = OpExpr.term(c, alpha=shift) + OpExpr.term(1e-20, alpha=1) + OpExpr.translation(2)
            kept = {t.alpha.value: t.coeff for t in op.terms()}
            assert sorted(kept) == sorted([shift, 2.0])
            assert cmath.isnan(kept[shift]) and kept[2.0] == 1.0


def test_merged_terms_keep_their_own_signed_zeros():
    """A row equal under == throughout (0.0 and -0.0) still moves with its terms:
    each term keeps its own zero, and a merged term the zero of its first."""
    neg = complex(-0.0, 1.0)
    for terms, want in (
        ([(1.0, 0j), (2.0, neg)], [(2.0, neg), (1.0, 0j)]),
        ([(2.0, 0j), (1.0, neg), (3.0, 1j)], [(4.0, neg), (2.0, 0j)]),
    ):
        got = ExpSum(terms).terms()
        assert [(c, r.real.hex(), r.imag.hex()) for c, r in got] == [
            (c, r.real.hex(), r.imag.hex()) for c, r in want]


def test_dilations_beyond_the_float_range_compose():
    (t,) = (OpExpr.dilation(1100) * OpExpr.translation(1)).terms()
    assert t.beta.dyadic == Dyadic(1100) and t.alpha.dyadic == Dyadic(1)
    (t,) = (OpExpr.term(1.0, mu=0.3, beta=1100) * OpExpr.translation(1)).terms()
    assert t.mu.value == 0.3 and not t.mu.is_exact and t.beta.dyadic == Dyadic(1100)


def test_exponents_beyond_the_float_range_are_refused_by_name():
    assert issubclass(ExponentRangeError, LaurentError)
    assert issubclass(ExponentRangeError, ValueError)
    big = 2**1100
    for make in (lambda: OpExpr.translation(1) * OpExpr.dilation(1100),
                 lambda: OpExpr.translation(0.1) * OpExpr.dilation(1100),
                 lambda: LaurentPoly.from_dict({big: 1}),
                 lambda: LaurentPoly.from_dict({2**1023: 1}) ** 2,
                 lambda: parse_laurent(f"T^{big}"),
                 lambda: float(Dyadic(big))):
        with pytest.raises(ExponentRangeError, match="beyond the float range"):
            make()


def test_shared_arithmetic_is_bound_on_each_class():
    # per-class instrumentation such as bench/tracer.py reads vars(cls)
    for cls in (OpExpr, LaurentPoly, ExpSum):
        for name in ("__add__", "__sub__", "__mul__", "__rmul__", "__pow__", "__neg__",
                     "is_zero", "max_abs_coeff", "isclose"):
            assert name in vars(cls), (cls.__name__, name)


# -- bit-for-bit references ---------------------------------------------------
#
# The normal form builds exponents straight from its columns, substitutes on
# the columns, and keys a row whose sorted values are pairwise more than
# EXPONENT_MERGE_TOL apart by its values instead of walking it.  The
# references below are the earlier forms of those three steps: one Exponent
# per distinct value through the public constructors, substitution through
# Exponent objects, and a merge that walks every row that is not exact or
# constant.  Each result must agree with its reference in every bit.


def reference_exponents(num, val, exact, den) -> list:
    made, out = {}, []
    for k, v, x in zip(num, val, exact):
        key = (x, k if x else v)
        if key not in made:
            made[key] = Exponent.exact(Dyadic(k, den)) if x else Exponent.approximate(v)
        out.append(made[key])
    return out


def reference_merged(order, re, im, num, den, val, exact) -> tuple:
    n = len(re)
    if n > 1:
        rep_of, keys, snapped = [None] * len(order), [], False
        for r in order:
            v, x, k = val[r], exact[r], num[r]
            if x.count(True) == n:
                if k.count(k[0]) < n:
                    keys.append(k)
                    rep_of[r] = True
            elif x.count(True) or v.count(v[0]) < n:
                by = list(zip(v, [not e for e in x], k))
                ids, reps = _clusters(sorted(range(n), key=by.__getitem__), v, x, k)
                keys.append(ids)
                rep_of[r], snapped = [reps[c] for c in ids], True
        word = list(zip(*keys)) if len(keys) > 1 else keys[0] if keys else [0] * n
        firsts, re_out, im_out, last = [], [], [], None
        for t in sorted(range(n), key=word.__getitem__, reverse=True):
            if word[t] == last:
                re_out[-1] += re[t]
                im_out[-1] += im[t]
            else:
                firsts.append(t)
                re_out.append(re[t])
                im_out.append(im[t])
                last = word[t]
        re, im = re_out, im_out
        if snapped or firsts != list(range(n)):
            num, val, exact = [*num], [*val], [*exact]
            for r, reps in enumerate(rep_of):
                pick = list(map(reps.__getitem__, firsts)) if isinstance(reps, list) else firsts
                for a in (num, val, exact):
                    a[r] = list(map(a[r].__getitem__, pick))
    if re and not min(map(abs, re)) >= COEFF_PRUNE_TOL:
        keep = [not abs(complex(r, i)) < COEFF_PRUNE_TOL for r, i in zip(re, im)]
        re, im = [x for x, k in zip(re, keep) if k], [x for x, k in zip(im, keep) if k]
        num, val, exact = ([[x for x, k in zip(row, keep) if k] for row in a]
                           for a in (num, val, exact))
    return re, im, num, den, val, exact


def reference_substitute_scaled(p: LaurentPoly, m, phase: float) -> tuple:
    """Raw columns of p(e^{i phase} T^m) through Exponent objects; m is read
    as Exponent.of reads it (an exact exponent stays exact under a dyadic m)."""
    m = Dyadic(m) if isinstance(m, int) else m
    m = (Dyadic.from_float(m) or m) if isinstance(m, float) else m
    out = []
    alpha = reference_exponents(p._num[0], p._val[0], p._exact[0], p._den)
    for c, e in zip(map(complex, p._re, p._im), alpha):
        if phase != 0.0:
            c = c * cmath.exp(1j * phase * e.value)
        if not isinstance(m, Dyadic):
            e = Exponent.approximate(e.value * float(m))
        elif e.is_exact:
            e = Exponent.exact(e.dyadic * m)
        else:
            e = Exponent.approximate(e.approx * float(m))
        out.append((e, c))
    alpha, coeffs = list(zip(*out)) or ((), ())
    return reference_merged((0,), *_columns(coeffs, [alpha]))


def columns_of(f) -> tuple:
    return f._re, f._im, f._num, f._den, f._val, f._exact


def exponent_bits(e: Exponent) -> tuple:
    return (True, e.dyadic.num, e.dyadic.log2_den) if e.is_exact else (False, e.approx.hex())


def term_bits(c: complex, *exponents: Exponent) -> tuple:
    return (c.real.hex(), c.imag.hex(), *map(exponent_bits, exponents))


def column_bits(columns) -> tuple:
    """Coefficient parts and values by float.hex, exactness, and each exact
    exponent as its reduced numerator and denominator (the common
    denominator of the columns need not be minimal)."""
    re, im, num, den, val, exact = columns
    return ([x.hex() for x in re], [x.hex() for x in im],
            [[(x, (Dyadic(k, den).num, Dyadic(k, den).log2_den) if x else k, v.hex())
              for k, v, x in zip(*rows)] for rows in zip(num, val, exact)])


def sharing(row: list) -> list:
    """Which entries of a row share an object: the index of each entry's first twin."""
    first = {}
    return [first.setdefault(id(e), i) for i, e in enumerate(row)]


NAN = float("nan")
near = st.builds(lambda base, k: base + k * 0.6 * EXPONENT_MERGE_TOL,
                 st.sampled_from([0.0, 0.3, -1.25, 2.0**60]), st.integers(-3, 3))
approx_exponent = st.one_of(near, st.floats(-4, 4), st.sampled_from([-0.0, NAN])).map(
    Exponent.approximate)
exact_exponent = st.one_of(st.builds(Dyadic, st.integers(-40, 40), st.integers(0, 5)),
                           st.sampled_from([Dyadic(2**60), Dyadic(2**60 + 1)])).map(Exponent.exact)
any_exponent = st.one_of(exact_exponent, approx_exponent)
part = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5, 1e-16, NAN]), st.floats(-2, 2))
coefficient = st.builds(complex, part, part)


@st.composite
def raw_columns(draw, rows: int, max_terms: int = 8):
    """Unmerged columns of up to max_terms terms: each row exact, approximate
    or mixed, with clusters near the merge tolerance, -0.0 and NaN."""
    n = draw(st.integers(0, max_terms))
    coeffs = draw(st.lists(coefficient, min_size=n, max_size=n))
    kinds = [draw(st.sampled_from([exact_exponent, approx_exponent, any_exponent]))
             for _ in range(rows)]
    return _columns(coeffs, [draw(st.lists(kind, min_size=n, max_size=n)) for kind in kinds])


FORMS = [(LaurentPoly, 1), (OpExpr, 3), (ExpSum, 2)]


@given(st.sampled_from(FORMS), st.data())
@settings(max_examples=300)
def test_merge_agrees_with_the_walk_of_every_row_bit_for_bit(form, data):
    cls, rows = form
    columns = data.draw(raw_columns(rows))
    if cls is ExpSum:  # rates are floats: every exponent approximate
        re, im, num, den, val, exact = columns
        columns = re, im, [[0] * len(re)] * rows, 0, val, [[False] * len(re)] * rows
    expected = reference_merged(cls._ORDER, *columns)
    assert column_bits(_merged(cls._ORDER, *columns)) == column_bits(expected)


@given(st.sampled_from(FORMS[:2]), st.data())
@settings(max_examples=200)
def test_terms_build_the_reference_exponents_bit_for_bit(form, data):
    cls, rows = form
    value = cls._normal(*data.draw(raw_columns(rows)))
    expected_rows = [reference_exponents(*row, value._den)
                     for row in zip(value._num, value._val, value._exact)]
    expected = list(zip(map(complex, value._re, value._im), *expected_rows))
    if cls is OpExpr:
        assert all(type(t) is OpTerm for t in value.terms())
        got = list(value.terms())
    else:
        got = [(c, e) for e, c in value.terms()]
    assert [term_bits(*t) for t in got] == [term_bits(*t) for t in expected]
    for r, expected_row in enumerate(expected_rows, start=1):
        assert sharing([t[r] for t in got]) == sharing(expected_row)


scale = st.one_of(st.integers(-3, 3), st.builds(Dyadic, st.integers(-9, 9), st.integers(0, 3)),
                  st.sampled_from([0.5, -2.0, 4.0, -0.125, 0.3, -1.7, 2.0**0.37, 2.0**-0.61]))


@given(st.data(), scale, st.sampled_from([0.0, -0.0, 0.3, -1.1, 2.0**0.37]))
@settings(max_examples=300)
def test_substitution_agrees_with_the_exponent_objects_bit_for_bit(data, m, phase):
    p = LaurentPoly._normal(*data.draw(raw_columns(1)))
    got = p.substitute_scaled(m, phase)
    assert column_bits(columns_of(got)) == column_bits(reference_substitute_scaled(p, m, phase))


def approximate_row(values) -> tuple:
    return _columns([1.0] * len(values), [[Exponent.approximate(v) for v in values]])


EDGE_ROWS = {
    # gaps of 1e-12 that round to either side of the tolerance
    "chain of 1e-12 steps": approximate_row([0.3 + k * 1e-12 for k in range(6)]),
    # exact exponents whose floats coincide, alone and with an approximate twin
    "2^60 against 2^60 + 1": _columns([1.0, 2.0], [[2**60, 2**60 + 1]]),
    "2^60, 2^60 + 1 and ~2^60": _columns([1.0, 2.0, 4.0], [[2**60, Exponent.approximate(2.0**60),
                                                            2**60 + 1]]),
    "equal floats": approximate_row([0.7, 0.7, -0.0, 0.0]),
    "a NaN exponent value": approximate_row([0.5, NAN, -0.5]),
}
WALKED = {"chain of 1e-12 steps", "2^60, 2^60 + 1 and ~2^60", "equal floats", "a NaN exponent value"}


@pytest.mark.parametrize("name", list(EDGE_ROWS))
def test_edge_rows_merge_as_the_walk_merges_them(name, monkeypatch):
    walks = []

    def counted(*args):
        walks.append(args)
        return _clusters(*args)

    monkeypatch.setattr(laurent, "_clusters", counted)
    columns = EDGE_ROWS[name]
    assert column_bits(_merged((0,), *columns)) == column_bits(reference_merged((0,), *columns))
    assert bool(walks) == (name in WALKED)


def test_rows_apart_by_more_than_the_tolerance_skip_the_walk(monkeypatch):
    monkeypatch.setattr(laurent, "_clusters", None)  # a walk would fail
    apart = [0.3 + k * 1.5 * EXPONENT_MERGE_TOL for k in range(4)]
    for columns in (approximate_row(apart[::-1]),
                    _columns([1.0, 2.0, 3.0], [[Dyadic(1, 1), Exponent.approximate(0.25), 2**60]])):
        assert column_bits(_merged((0,), *columns)) == column_bits(reference_merged((0,), *columns))

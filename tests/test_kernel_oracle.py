"""Differential tests of the exact kernel against sympy.

Laurent polynomials with integer coefficients over negative and positive
variable ids are multiplied, divided, reduced and gcd'ed by clusterflow and
by sympy, and the answers are compared as rational functions.  Rational
scalars enter through `RatFunc.constant`.  The canonical-form conventions
clusterflow adds on top (num and den without a common factor over Z, integer
content included, and a positive graded-lex leading coefficient of den) are
checked directly.  sympy is a test-only dependency.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from clusterflow import algebra  # noqa: E402
from clusterflow.algebra import (  # noqa: E402
    DivisionFails,
    LaurentPoly,
    RatFunc,
    exact_div_laurent,
    mono,
    mono_mul,
    poly_gcd,
    try_exact_div,
)

VARS = (-5, -2, -1, 0, 1, 3, 4)
SYMBOLS = {v: sympy.Symbol(f"v{v}".replace("-", "m")) for v in VARS}
GENS = [SYMBOLS[v] for v in sorted(VARS)]


def _poly(min_exp: int, max_exp: int, max_terms: int = 5):
    term = st.tuples(
        st.integers(-6, 6),
        st.dictionaries(st.sampled_from(VARS), st.integers(min_exp, max_exp), max_size=3),
    )
    return st.lists(term, max_size=max_terms).map(
        lambda terms: sum(
            (LaurentPoly.monomial(mono(m), co) for co, m in terms), LaurentPoly.zero()
        )
    )


laurent = _poly(-2, 3)
polynomial = _poly(0, 3)
scalar = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def to_sympy(p: LaurentPoly):
    total = sympy.Integer(0)
    for m, c in p.terms.items():
        term = sympy.Integer(c)
        for v, e in m:
            term *= SYMBOLS[v] ** e
        total += term
    return total


def _parts(expr):
    """Numerator and denominator Polys of a rational expression, cancelled.
    The numerator's coefficients may be rational: sympy leaves (1 + y)/2 as
    one sum."""
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    return sympy.Poly(num, *GENS), sympy.Poly(den, *GENS)


def is_laurent(expr) -> bool:
    """Whether a rational expression is a Laurent polynomial over Q (a
    polynomial over a monomial denominator)."""
    return len(_parts(expr)[1].terms()) == 1


def is_integer_laurent(expr) -> bool:
    """Whether a rational expression is a Laurent polynomial with integer
    coefficients."""
    num, den = _parts(expr)
    if len(den.terms()) != 1:
        return False
    lc = den.coeffs()[0]
    return all((c / lc).is_integer for c in num.coeffs())


def same(a, b) -> bool:
    return sympy.simplify(sympy.cancel(sympy.together(a - b))) == 0


@given(laurent, laurent)
@settings(max_examples=60, deadline=None)
def test_mul_matches_sympy(p, q):
    assert sympy.expand(to_sympy(p * q) - to_sympy(p) * to_sympy(q)) == 0


@given(laurent, laurent)
@settings(max_examples=60, deadline=None)
def test_exact_div_of_product_matches_sympy(p, q):
    if q.is_zero():
        return
    got = exact_div_laurent(p * q, q)
    assert sympy.expand(to_sympy(got) - to_sympy(p)) == 0


@given(laurent, laurent)
@settings(max_examples=60, deadline=None)
def test_exact_div_succeeds_iff_sympy_divides(n, d):
    # division is in the integers: it succeeds exactly when the quotient is
    # a Laurent polynomial with integer coefficients
    if d.is_zero():
        return
    ratio = to_sympy(n) / to_sympy(d)
    if is_integer_laurent(ratio):
        got = exact_div_laurent(n, d)
        assert same(to_sympy(got), ratio)
    else:
        with pytest.raises(DivisionFails):
            exact_div_laurent(n, d)
        assert try_exact_div(n, d) is None


def _grlex_lc(p: LaurentPoly):
    return sympy.Poly(to_sympy(p), *GENS).LC(order="grlex")


@given(polynomial, polynomial, polynomial)
@settings(max_examples=50, deadline=None)
def test_poly_gcd_matches_sympy(a, b, g):
    a, b = a * g, b * g
    got = poly_gcd(a, b)
    want = sympy.gcd(to_sympy(a), to_sympy(b))
    if want == 0:
        assert got.is_zero()
        return
    # equal up to a nonzero scalar, and canonically normalized
    ratio = sympy.cancel(to_sympy(got) / want)
    assert ratio.is_number and ratio != 0
    assert all(type(c) is int for c in got.terms.values())
    assert got.content() == 1
    assert _grlex_lc(got) > 0


def check_canonical_form(r: RatFunc, value) -> None:
    """r is the sympy expression value in canonical form: the same rational
    function, with integer coefficients, den a true polynomial with min
    exponent 0 in every variable and a positive graded-lex leading
    coefficient, num and den without a common factor over Z (integer
    content included), and den constant exactly when the value is a Laurent
    polynomial, 1 exactly when that polynomial has integer coefficients."""
    num, den = r.num, r.den
    assert same(to_sympy(num) / to_sympy(den), value)
    if num.is_zero():
        assert den.is_one()
        return
    assert all(type(c) is int for c in (*num.terms.values(), *den.terms.values()))
    assert den.is_polynomial()
    assert all(e == 0 for _, e in den.min_exponents())
    assert _grlex_lc(den) > 0
    shift = {v: -e for v, e in num.min_exponents()}
    num_poly = to_sympy(num * LaurentPoly.monomial(mono(shift)))
    assert sympy.gcd(num_poly, to_sympy(den)) == 1
    assert den.is_constant() == is_laurent(value)
    assert den.is_one() == is_integer_laurent(value)


@given(laurent, laurent, scalar)
@settings(max_examples=50, deadline=None)
def test_ratfunc_canonical_form_matches_sympy(p, q, s):
    if q.is_zero():
        return
    r = RatFunc.constant(s) * RatFunc.from_poly(p) / RatFunc.from_poly(q)
    check_canonical_form(r, sympy.Rational(s) * to_sympy(p) / to_sympy(q))


monomial = st.tuples(
    st.integers(-6, 6).filter(bool),
    st.dictionaries(st.sampled_from(VARS), st.integers(-3, 3), max_size=3),
).map(lambda cm: LaurentPoly.monomial(mono(cm[1]), cm[0]))


@given(laurent, laurent, monomial, scalar)
@settings(max_examples=50, deadline=None)
def test_ratfunc_of_divisible_pair_matches_sympy(den, q, m, s):
    # den divides num in the Laurent ring, so the reduction ends in den = 1,
    # and a rational scalar leaves a constant den
    if den.is_zero():
        return
    num = den * q * m
    r = RatFunc(num, den)
    check_canonical_form(r, to_sympy(num) / to_sympy(den))
    assert r.den.is_one()
    assert same(to_sympy(r.num), to_sympy(q * m))
    scaled = RatFunc.constant(s) * r
    check_canonical_form(scaled, sympy.Rational(s) * to_sympy(q * m))
    assert scaled.den.is_constant()


@given(laurent, polynomial, st.integers(-12, 12).filter(bool), monomial)
@settings(max_examples=50, deadline=None)
def test_ratfunc_of_pair_with_den_content_matches_sympy(q, pp, k, m):
    # den = k * pp with pp dividing num: the value is a Laurent polynomial
    # over the integer k, found by dividing by den's primitive part, with no
    # gcd taken
    if pp.is_constant():
        return
    num, den = pp * q * m, pp * LaurentPoly.constant(k)
    calls = []
    gcd = algebra.poly_gcd
    algebra.poly_gcd = lambda a, b: calls.append(1) or gcd(a, b)
    try:
        r = RatFunc(num, den)
    finally:
        algebra.poly_gcd = gcd
    check_canonical_form(r, to_sympy(num) / to_sympy(den))
    assert r.den.is_constant()
    assert not calls


# few variables, so that images often hold variables that are substituted too
images = st.dictionaries(
    st.sampled_from(VARS[2:5]),
    st.dictionaries(st.sampled_from(VARS[1:5]), st.integers(-2, 2), max_size=3).map(mono),
    max_size=3,
)


@given(laurent, images)
@settings(max_examples=60, deadline=None)
def test_substitute_matches_sympy_subs(p, values):
    # the map is simultaneous: x0 -> x1, x1 -> x0 swaps the two
    subs = {
        SYMBOLS[v]: sympy.Mul(*(SYMBOLS[w] ** e for w, e in m)) for v, m in values.items()
    }
    want = to_sympy(p).subs(subs, simultaneous=True)
    assert sympy.expand(to_sympy(p.substitute(values)) - want) == 0


# Products on compact keys (`algebra._mul_compact`) against the dict loop and
# sympy.  The fixture registers a hundred filler variables before the late
# ids, so these own fields above bit 1,600 and their keys are that wide.
FILLER = range(9000, 9100)
LATE = (9100, 9101, 9102)
LATE_SYMBOLS = {v: sympy.Symbol(f"w{v}") for v in LATE}


@pytest.fixture(scope="module")
def late_vars():
    for v in (*FILLER, *LATE):
        LaurentPoly.variable(v)
    assert algebra._SLOT[LATE[0]] >= 100 * algebra.FIELD_BITS


def any_to_sympy(p: LaurentPoly):
    total = sympy.Integer(0)
    for m, c in p.terms.items():
        total += sympy.Integer(c) * sympy.Mul(
            *((SYMBOLS.get(v) or LATE_SYMBOLS[v]) ** e for v, e in m))
    return total


def dict_loop_product(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "COMPACT_MIN_PRODUCTS", float("inf"))
        return p * q


def compact_product(p: LaurentPoly, q: LaurentPoly, min_products=0) -> tuple[LaurentPoly, list]:
    """p * q with the cutoff at min_products, and whether each call of the
    compact helper ran the product (True) or fell back (False)."""
    ran = []
    helper = algebra._mul_compact

    def spy(*args):
        out = helper(*args)
        ran.append(out is not None)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "COMPACT_MIN_PRODUCTS", min_products)
        mp.setattr(algebra, "_mul_compact", spy)
        return p * q, ran


def tuple_product(p: LaurentPoly, q: LaurentPoly) -> dict:
    """p * q term by term on Mono tuples, with no packed key."""
    out: dict = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def check_compact_product(p: LaurentPoly, q: LaurentPoly, min_products=0, oracle=True) -> list:
    """The product on compact keys equals the dict loop's, term order and
    carried range included, and the term-by-term product on Mono tuples
    (and sympy's, if oracle); returns what the helper did."""
    got, ran = compact_product(p, q, min_products)
    want = dict_loop_product(p, q)
    assert list(got._t.items()) == list(want._t.items())
    assert dict(got.terms.items()) == tuple_product(p, q)
    if got._t:
        assert (got._lo, got._hi) == algebra._key_range(got._t) == want._range()
    if oracle:
        assert sympy.expand(any_to_sympy(got) - any_to_sympy(p) * any_to_sympy(q)) == 0
    return ran


def _wide_poly(max_terms: int = 8):
    term = st.tuples(
        st.integers(-4, 4),
        st.dictionaries(st.sampled_from(VARS[:3] + LATE), st.integers(-3, 3), max_size=3),
    )
    return st.lists(term, max_size=max_terms).map(
        lambda terms: sum(
            (LaurentPoly.monomial(mono(m), co) for co, m in terms), LaurentPoly.zero()
        )
    )


wide = _wide_poly()


@given(st.one_of(laurent, wide), st.one_of(laurent, wide))
@settings(max_examples=80, deadline=None)
def test_compact_product_matches_the_dict_loop_and_sympy(late_vars, p, q):
    ran = check_compact_product(p, q)
    assert all(ran)  # these boxes are far below 60 bits


@given(wide, wide)
@settings(max_examples=60, deadline=None)
def test_compact_product_with_inner_cancellations(late_vars, p, q):
    # (p + q)(p - q): the cross terms cancel inside the loop, and a term
    # that reappears after its deletion goes to the end of the dict
    check_compact_product(p + q, p - q)
    check_compact_product(p - q, (p + q) * (p + q), oracle=False)


def test_compact_product_at_the_real_cutoff(late_vars):
    # 64 x 64 terms over two late variables and x0, with negative exponents
    # and terms that cancel: 4,096 term products take the compact path
    a = sum(
        (LaurentPoly.monomial(mono({LATE[0]: i % 8 - 3, LATE[1]: i // 8 - 4, 0: i % 3}), i % 7 - 3 or 5)
         for i in range(64)),
        LaurentPoly.zero(),
    )
    b = sum(
        (LaurentPoly.monomial(mono({LATE[0]: i // 8 - 2, LATE[1]: 3 - i % 8, 0: -(i % 2)}), 2 - i % 5)
         for i in range(64) if 2 - i % 5),
        LaurentPoly.zero(),
    ) + sum(
        (LaurentPoly.monomial(mono({LATE[2]: j}), 1) for j in range(1, 14)), LaurentPoly.zero())
    assert len(a._t) == len(b._t) == 64
    assert len(a._t) * len(b._t) == algebra.COMPACT_MIN_PRODUCTS
    assert check_compact_product(a, b, algebra.COMPACT_MIN_PRODUCTS, oracle=False) == [True]
    square, ran = compact_product(a - b, a + b, algebra.COMPACT_MIN_PRODUCTS)
    assert ran == [True] and square == a * a - b * b

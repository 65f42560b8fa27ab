"""Exact Laurent-polynomial and rational-function arithmetic."""

import signal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterflow import algebra
from clusterflow.factored import Factored
from clusterflow.algebra import (
    DivisionFails,
    LaurentPoly,
    RatFunc,
    exact_div_laurent,
    format_fraction,
    mono,
    mono_mul,
    parse_fraction,
    poly_gcd,
    try_exact_div,
    xvar,
)


def x(i, e=1):
    return LaurentPoly.variable(i, e)


def c(v):
    return LaurentPoly.constant(v)


small_poly = st.lists(
    st.tuples(
        st.integers(-5, 5),  # coefficient
        st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 3)), max_size=3),
    ),
    min_size=0,
    max_size=5,
).map(
    lambda terms: sum(
        (LaurentPoly.monomial(mono(dict(m)), co) for co, m in terms),
        LaurentPoly.zero(),
    )
)


class TestLaurentPoly:
    def test_constant_arithmetic(self):
        assert c(2) + c(3) == c(5)
        assert c(2) * c(3) == c(6)
        assert (c(2) - c(2)).is_zero()

    def test_negative_exponents(self):
        p = x(0, -1) * x(1, 2)
        assert p * x(0) == x(1, 2)

    def test_min_exponents(self):
        p = x(0, -2) + x(0, 3) * x(1, -1)
        lows = dict(p.min_exponents())
        assert lows.get(0, 0) == -2
        assert lows.get(1, 0) == -1

    def test_min_exponents_missing_var_clamps_to_zero(self):
        # each variable is absent from one term, so its floor is 0
        p = x(0, 2) + x(1, 3)
        lows = dict(p.min_exponents())
        assert lows.get(0, 0) == 0 and lows.get(1, 0) == 0

    def test_mono_mul_merges_sorted(self):
        a = mono({0: 1, 2: -1})
        b = mono({1: 2, 2: 1})
        assert dict(mono_mul(a, b)) == {0: 1, 1: 2}

    @given(small_poly, small_poly)
    @settings(max_examples=80, deadline=None)
    def test_division_roundtrip(self, p, q):
        if q.is_zero():
            return
        prod = p * q
        got = exact_div_laurent(prod, q)
        assert got == p

    @given(small_poly, small_poly)
    @settings(max_examples=60, deadline=None)
    def test_try_exact_div_consistent(self, p, q):
        if q.is_zero():
            return
        r = try_exact_div(p, q)
        if r is not None:
            assert r * q == p

    def test_division_fails_on_non_multiple(self):
        with pytest.raises(DivisionFails):
            exact_div_laurent(x(0) + c(1), x(1) + c(1))

    def test_gcd_divides_both(self):
        g = x(0) + x(1)
        a = g * (x(0) + c(1))
        b = g * (x(1) + c(2))
        d = poly_gcd(a, b)
        assert try_exact_div(a, d) is not None
        assert try_exact_div(b, d) is not None
        assert try_exact_div(d, g) is not None

    def test_gcd_handles_fractional_coefficients(self):
        # coefficients are integers; operands with different contents still
        # meet in g, and rational scalars stay in the RatFunc around them
        g = x(0) + x(1)
        a = g.scale(6) * (x(0).scale(2) + c(1))
        b = g.scale(-10) * (x(1) + c(2))
        d = poly_gcd(a, b)
        assert try_exact_div(d, g) is not None
        r = (RatFunc.constant(Fraction(3, 7)) * RatFunc.from_poly(g * (x(0) + c(1)))) / (
            RatFunc.constant(Fraction(-2, 5)) * RatFunc.from_poly(g * (x(1) + c(2)))
        )
        assert (r.num, r.den) == ((x(0) + c(1)).scale(-15), (x(1) + c(2)).scale(14))


class TestRatFunc:
    def test_cancellation(self):
        p = RatFunc.from_poly(x(0) ** 2 - c(1))
        q = RatFunc.from_poly(x(0) + c(1))
        r = p / q
        assert r.den.is_one()
        assert r.num == x(0) - c(1)

    def test_field_axioms_spot(self):
        a = RatFunc.from_poly(x(0) + c(1)) / RatFunc.from_poly(x(1))
        b = RatFunc.from_poly(x(1) - c(2)) / RatFunc.from_poly(x(0))
        assert (a + b) - b == a
        assert (a * b) / b == a

    @given(small_poly, small_poly)
    @settings(max_examples=40, deadline=None)
    def test_mul_div_inverse(self, p, q):
        if p.is_zero() or q.is_zero():
            return
        a = RatFunc.from_poly(p) / RatFunc.from_poly(q)
        assert a * a.inverse() == RatFunc.one()


class TestFractions:
    def test_parse_format_roundtrip(self):
        for s in ("3", "-5/7", "0", "22/7"):
            assert format_fraction(parse_fraction(s)) == s

    def test_parse_rejects_float(self):
        with pytest.raises(ValueError):
            parse_fraction("1.5")


def test_term_limit_env(monkeypatch):
    monkeypatch.setenv("CLUSTERFLOW_MAX_TERMS", "5")
    from clusterflow.algebra import TermLimitExceeded

    p = sum((x(i) for i in range(4)), LaurentPoly.zero())
    with pytest.raises(TermLimitExceeded):
        _ = p * p * p


def test_term_limit_reports_the_first_term_past_the_cap(monkeypatch):
    monkeypatch.setenv("CLUSTERFLOW_MAX_TERMS", "5")
    from clusterflow.algebra import TermLimitExceeded

    p = sum((x(i) for i in range(4)), LaurentPoly.zero())
    with pytest.raises(TermLimitExceeded, match=r"^6 terms in a product"):
        _ = p * p
    with pytest.raises(TermLimitExceeded, match=r"^6 terms in a sum"):
        _ = p + x(4) + x(5)


def test_term_limit_bounds_a_quotient(monkeypatch):
    from clusterflow.algebra import TermLimitExceeded

    n = sum((x(i) for i in range(6)), LaurentPoly.zero()) * (c(1) + x(6))
    square = n * n
    monkeypatch.setenv("CLUSTERFLOW_MAX_TERMS", "11")
    with pytest.raises(TermLimitExceeded, match=r"^12 terms in a quotient"):
        exact_div_laurent(square, n)


def test_term_limit_read_once_per_product(monkeypatch):
    from clusterflow import algebra

    p = sum((x(i) for i in range(30)), LaurentPoly.zero())
    reads = []
    monkeypatch.setattr(algebra, "_term_limit", lambda: reads.append(1) or 200000)
    p = p.scale(3) - x(40)
    assert len(reads) == 1  # the subtraction; scaling and negation never grow
    _ = p * p
    assert len(reads) == 2


def _compact_spy(monkeypatch) -> list:
    """Records, for each call of the compact product helper, whether it ran
    the product (True), fell back to the dict loop (False) or raised (None)."""
    ran = []
    helper = algebra._mul_compact

    def spy(*args):
        ran.append(None)
        out = helper(*args)
        ran[-1] = out is not None
        return out

    monkeypatch.setattr(algebra, "_mul_compact", spy)
    return ran


def univariate(n, v=0, e0=0):
    """1 + 2 x_v + ... + n x_v**(n-1), times x_v**e0."""
    return sum((x(v, e0 + i).scale(i + 1) for i in range(n)), LaurentPoly.zero())


def test_term_limit_on_compact_keys_is_the_dict_loops(monkeypatch):
    from clusterflow.algebra import TermLimitExceeded

    p, q = univariate(64), univariate(64, e0=-20) - x(1)
    assert len(p.terms) * len(q.terms) >= algebra.COMPACT_MIN_PRODUCTS
    ran = _compact_spy(monkeypatch)
    monkeypatch.setenv("CLUSTERFLOW_MAX_TERMS", "100")
    messages = []
    cutoff0 = algebra.COMPACT_MIN_PRODUCTS
    for cutoff in (cutoff0, float("inf")):
        monkeypatch.setattr(algebra, "COMPACT_MIN_PRODUCTS", cutoff)
        with pytest.raises(TermLimitExceeded, match=r"^101 terms in a product$") as err:
            _ = p * q
        messages.append(str(err.value))
    assert ran == [None] and messages[0] == messages[1]  # the helper raised
    monkeypatch.setattr(algebra, "COMPACT_MIN_PRODUCTS", cutoff0)
    monkeypatch.setenv("CLUSTERFLOW_MAX_TERMS", "191")
    assert len((p * q).terms) == 191 and ran == [None, True]


def test_exponent_overflow_comes_before_compact_keys(monkeypatch):
    from clusterflow.algebra import EXP_LIMIT, ExponentOverflow

    ran = _compact_spy(monkeypatch)
    p = univariate(64, e0=EXP_LIMIT // 2)
    with pytest.raises(ExponentOverflow):
        _ = p * p
    with pytest.raises(ExponentOverflow):
        _ = univariate(64, e0=-EXP_LIMIT // 2 - 1) * univariate(64, e0=-EXP_LIMIT // 2)
    assert ran == []
    assert len((univariate(64, e0=EXP_LIMIT // 2 - 128) * p).terms) == 127 and ran == [True]


def test_term_limit_read_once_per_compact_product(monkeypatch):
    ran = _compact_spy(monkeypatch)
    p = univariate(64) + x(1)
    reads = []
    monkeypatch.setattr(algebra, "_term_limit", lambda: reads.append(1) or 200000)
    _ = p * p
    assert reads == [1] and ran == [True]


def test_a_box_over_60_bits_falls_back_to_the_dict_loop(monkeypatch):
    # 64 variables of degree 0 or 1 on each side: the box has 3**64 > 2**60
    # points
    p = sum((x(i) for i in range(64)), LaurentPoly.zero())
    q = p + c(1)
    ran = _compact_spy(monkeypatch)
    got = p * q
    assert ran == [False]
    monkeypatch.setattr(algebra, "COMPACT_MIN_PRODUCTS", float("inf"))
    want = p * q
    assert list(got._t.items()) == list(want._t.items())
    assert len(got.terms) == 64 + 64 * 63 // 2 + 64
    assert got.terms[mono({3: 2})] == 1 and got.terms[mono({3: 1, 5: 1})] == 2


def test_one_term_operands_and_first_powers():
    from clusterflow.algebra import TermLimitExceeded

    p = univariate(5, e0=-2) - x(1)
    one = LaurentPoly.one()
    assert p ** 1 is p and one * p is p and p * one is p
    m = x(1, -3).scale(-2) * x(4)
    for got in (p * m, m * p):
        assert got == LaurentPoly({mono_mul(k, mono({1: -3, 4: 1})): -2 * v
                                   for k, v in p.terms.items()})
        assert (got._lo, got._hi) == algebra._key_range(got._t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CLUSTERFLOW_MAX_TERMS", "5")
        with pytest.raises(TermLimitExceeded, match=r"^6 terms in a product$"):
            _ = m * p
        with pytest.raises(TermLimitExceeded, match=r"^6 terms in a product$"):
            _ = one * p


def test_the_largest_products_of_a_depth_six_run_use_compact_keys(monkeypatch):
    # the two products behind the 54,961-term base of lv_run(6, -18, 20):
    # a later change must not lose their compact path unnoticed
    from clusterflow.dynamics import lv_run

    sizes = []
    compact = []
    mul, helper = LaurentPoly.__mul__, algebra._mul_compact

    def spy_mul(p, q):
        sizes.append(len(p.terms) * len(q.terms))
        return mul(p, q)

    def spy_helper(a, b, *args):
        out = helper(a, b, *args)
        if out is not None:
            compact.append(len(a) * len(b))
        return out

    monkeypatch.setattr(LaurentPoly, "__mul__", spy_mul)
    monkeypatch.setattr(algebra, "_mul_compact", spy_helper)
    lv_run(6, -18, 20)
    largest = sorted(sizes)[-2:]
    assert min(largest) > 100_000
    assert sorted(compact)[-2:] == largest


def test_content_of_mixed_integer_and_fraction_coefficients():
    # a polynomial's content is the gcd of its int coefficients, whatever
    # the term order; the content 1/2 of 1 + x/2 lives in Factored.coeff
    assert (c(2) + x(0).scale(4)).content() == 2
    assert (x(0).scale(4) + c(2)).content() == 2
    one, half, v = Factored.one(), Factored.constant(Fraction(1, 2)), Factored.variable(0)
    for s in (one + half * v, half * v + one):
        assert s.coeff == Fraction(1, 2)
        assert s.powers == {c(2) + x(0): 1}
        assert (s.expand().num, s.expand().den) == (c(2) + x(0), c(2))


def test_ratfunc_canonical_form_is_unique():
    # 1/(1 + y/2) and 2/(2 + y) must be the same structure, since equality
    # and hashing are structural
    y_half = RatFunc.constant(Fraction(1, 2)) * RatFunc.variable(1)
    a = RatFunc.one() / (RatFunc.one() + y_half)
    b = RatFunc.constant(2) / RatFunc.from_poly(x(1) + c(2))
    assert (a.num, a.den) == (b.num, b.den)
    assert a.den == x(1) + c(2)
    assert hash(a) == hash(b)


def test_coefficients_are_integers():
    for bad in (Fraction(1, 2), 0.5):
        with pytest.raises(ValueError):
            LaurentPoly({mono({0: 1}): bad})
        with pytest.raises(ValueError):
            LaurentPoly.constant(bad)
        with pytest.raises(ValueError):
            LaurentPoly.monomial(mono({0: 1}), bad)
    three = Fraction(3)
    assert LaurentPoly({mono({0: 1}): three}) == x(0).scale(3)
    assert LaurentPoly.constant(three) == c(3)
    assert LaurentPoly.monomial(mono({0: 1}), three) == x(0).scale(3)
    assert all(type(v) is int for v in (c(three) + x(0).scale(3)).terms.values())
    half = RatFunc.constant(Fraction(1, 2))
    assert (half.num, half.den) == (c(1), c(2))
    assert half.is_constant() and half.constant_value() == Fraction(1, 2)


def test_exponent_overflow_is_an_error():
    from clusterflow.algebra import EXP_LIMIT, ExponentOverflow

    big = x(0, EXP_LIMIT - 1)
    with pytest.raises(ExponentOverflow):
        _ = big * x(0)
    with pytest.raises(ExponentOverflow):
        x(0, EXP_LIMIT)
    assert (big * x(0, -1)) == x(0, EXP_LIMIT - 2)


def test_substitution_keeps_the_exponent_range_and_term_cap(monkeypatch):
    from clusterflow.algebra import EXP_LIMIT, ExponentOverflow, TermLimitExceeded

    half = EXP_LIMIT // 2
    p = x(0, 2) + x(1)
    assert p.substitute({0: mono({1: half - 1})}) == x(1, 2 * half - 2) + x(1)
    with pytest.raises(ExponentOverflow):
        p.substitute({0: mono({1: half})})
    with pytest.raises(ExponentOverflow):
        (x(0) * x(1, EXP_LIMIT - 1)).substitute({0: mono({1: 1})})
    n = sum((x(i) for i in range(6)), LaurentPoly.zero())
    monkeypatch.setenv("CLUSTERFLOW_MAX_TERMS", "5")
    with pytest.raises(TermLimitExceeded, match=r"^6 terms in a substitution"):
        n.substitute({0: mono({0: -1})})


# poly_gcd's work depends only on the polynomials and the order of the
# variable ids: neither the order the terms were inserted in nor the order the
# variables were registered in may change the recursion
GCD_VARS = (-3, 0, 2, 5)


def _relabel_var(v: int) -> int:
    # order-preserving, onto ids no other test uses
    return 3 * v + 1001


def _relabel(p: LaurentPoly) -> LaurentPoly:
    return LaurentPoly(
        {mono((_relabel_var(v), e) for v, e in m): co for m, co in p.terms.items()}
    )


def _reversed(p: LaurentPoly) -> LaurentPoly:
    return LaurentPoly(dict(reversed(list(p.terms.items()))))


def _gcd_calls(a: LaurentPoly, b: LaurentPoly) -> tuple[int, LaurentPoly]:
    # the heuristic gcd's calls: one per evaluation point at every level
    calls = 0
    heu = algebra._heu_gcd

    def counting(p, q):
        nonlocal calls
        calls += 1
        return heu(p, q)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(algebra, "_heu_gcd", counting)
        g = algebra.poly_gcd(a, b)
    return calls, g


gcd_poly = st.lists(
    st.tuples(
        st.integers(-4, 4).filter(bool),
        st.dictionaries(st.sampled_from(GCD_VARS), st.integers(0, 3), max_size=3),
    ),
    min_size=1,
    max_size=4,
).map(
    lambda terms: sum(
        (LaurentPoly.monomial(mono(m), co) for co, m in terms), LaurentPoly.zero()
    )
)


@given(gcd_poly, gcd_poly, gcd_poly)
@settings(max_examples=60, deadline=None)
def test_gcd_work_does_not_depend_on_term_order_or_labels(g, p, q):
    # register the relabelled variables against their id order
    for v in sorted(GCD_VARS, reverse=True):
        LaurentPoly.variable(_relabel_var(v))
    a, b = g * p, g * q
    calls, want = _gcd_calls(a, b)
    assert _gcd_calls(_reversed(a), _reversed(b)) == (calls, want)
    assert _gcd_calls(_relabel(a), _relabel(b)) == (calls, _relabel(want))


def test_gcd_of_a_draw_that_swelled_the_prs():
    # a draw of the test above on which the primitive pseudo-remainder
    # sequence that poly_gcd used to run took minutes: its remainders reached
    # degree 220 in an inner content gcd
    v = {i: x(i) for i in GCD_VARS}
    g = c(2) * v[2]
    p = c(4) + c(3) * v[2] ** 2 + c(3) * v[5] ** 3 + v[-3] ** 3 * v[2]
    q = (
        c(4) * v[-3] * v[0] ** 2
        + c(2) * v[-3] ** 2 * v[5]
        + c(2) * v[0] ** 2 * v[5] ** 3
        + c(3) * v[0] ** 3 * v[2] ** 3
    )

    def stop(signum, frame):
        raise TimeoutError("poly_gcd ran for more than 10 s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        d = poly_gcd(g * p, g * q)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert d == v[2]


def test_divisor_failed_on_images_is_not_tried_on_the_expanded_sum(monkeypatch):
    # (1 + x1)/(B A) + x0 (2 + x0 + x1)/(B A) with B = 1 + x2, A = 1 + x0:
    # images reject B, leave A undecided and so expand the sum; the exact
    # division of the expanded sum tries A and never B again
    from clusterflow import factored

    x0, x1, x2 = (Factored.variable(xvar(i)) for i in range(3))
    one = Factored.one()
    den = ((one + x2) * (one + x0)) ** -1
    calls = []
    divide = factored.try_exact_div

    def recording(n, d):
        q = divide(n, d)
        calls.append((len(n.terms), d, q is not None))
        return q

    with monkeypatch.context() as m:
        m.setattr(factored, "try_exact_div", recording)
        total = (one + x1) * den + x0 * (one + one + x0 + x1) * den
    a = (one + x0).expand().num
    assert calls == [(5, a, True)]
    assert total == (one + x0 + x1) / (one + x2)


# exponents at both ends of the packed range, so a per-field max or min
# that borrowed across fields would show
edge_exp = st.sampled_from(
    (-algebra.EXP_LIMIT, -algebra.EXP_LIMIT + 1, -1, 1, 2, algebra.EXP_LIMIT - 2, algebra.EXP_LIMIT - 1)
)
edge_poly = st.lists(
    st.tuples(
        st.integers(-3, 3).filter(bool),
        st.dictionaries(st.integers(0, 3), edge_exp, max_size=4),
    ),
    min_size=1,
    max_size=6,
).map(lambda terms: LaurentPoly({mono(m): co for co, m in terms}))


_LOWEST = x(0, -algebra.EXP_LIMIT)
_HIGHEST = x(1, algebra.EXP_LIMIT - 1)


@given(edge_poly, edge_poly, st.booleans())
@example(_LOWEST * (c(1) + x(1)), _LOWEST * x(1, 2), False)  # x0's maximum is -EXP_LIMIT
@example(_HIGHEST * (c(1) + x(0)), _HIGHEST * x(0, -3), False)  # x1's minimum is EXP_LIMIT - 1
@settings(max_examples=150, deadline=None)
def test_a_sum_carries_the_range_of_its_terms(a, b, cancel):
    if cancel:
        b = b - a  # every term of a that b lacks cancels in a + b
    for p in (a, b):
        if not p.is_zero():
            p._range()
    s = a + b
    if s.is_zero():
        return
    cancelled = any(b._t.get(k, 0) == -v for k, v in a._t.items())
    assert (s._lo is None) == cancelled  # carried unless a term cancelled
    assert s._range() == algebra._key_range(s._t)


def test_hash_agrees_with_equality_however_a_polynomial_is_built():
    # p = (x0 + x1^-1)(x0 x1 - 2) = x0^2 x1 - x0 - 2 x1^-1
    built = LaurentPoly({((0, 2), (1, 1)): 1, ((0, 1),): -1, ((1, -1),): -2})
    product = (x(0) + x(1, -1)) * (x(0) * x(1) - c(2))
    total = (x(0, 2) * x(1) + x(3)) + (c(-1) * x(0) + c(-2) * x(1, -1) - x(3))
    quotient = LaurentPoly({((0, 1),): 1, ((1, -1),): -1, ((0, -1), (1, -2)): -2})
    shifted = quotient._shifted(algebra._pack(mono({0: 1, 1: 1})))
    forms = [built, product, total, shifted]
    assert all(p == built for p in forms)
    assert len({hash(p) for p in forms}) == 1
    assert {built: "p"}[shifted] == "p"
    assert hash(LaurentPoly.zero()) == 0


def _image_per_term(p: LaurentPoly, shift: int) -> dict[int, int]:
    """p's image in the variable at shift, term by term: k v**e goes to
    c * 3**(k - (e << shift)) mod P."""
    P = algebra.IMAGE_PRIME
    out: dict[int, int] = {}
    for k, co in p._t.items():
        e = algebra._field(k, shift)
        out[e] = (out.get(e, 0) + co * pow(3, (k - (e << shift)) % (P - 1), P)) % P
    return {e: v for e, v in out.items() if v}


@given(small_poly, st.permutations(range(5)), st.sampled_from((1, 7 * algebra.IMAGE_PRIME)))
@settings(max_examples=80, deadline=None)
def test_every_image_is_the_per_term_image(p, order, unit):
    p = p.scale(unit) + x(4, -1) if unit != 1 else p * x(4, -1)
    for v in order:  # the first image evaluates the terms, the rest reuse them
        shift = algebra._SLOT[v]
        assert p._image(shift) == _image_per_term(p, shift)

"""Factored values: the work of a run does not depend on labels, a divisor
that failed is not tried again, an image never rejects a true divisor, a
divisor images cannot decide is divided exactly, trial divisions never
expand a sum past the run's largest base, bases hold int coefficients even
when the values are rational, a base does not depend on the unit split off
it, and products and powers are the values their constructor builds."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clusterflow import factored
from clusterflow.algebra import (
    IMAGE_PRIME,
    LaurentPoly,
    SemifieldTag,
    _key_mul,
    _key_pow,
    _pack,
    mono,
    try_exact_div,
    xvar,
)
from clusterflow.dynamics import liouville_run, lv_run
from clusterflow.factored import Factored, _divide, _is_new, _split


def _work(monkeypatch, lo: int, hi: int) -> tuple[int, int, int]:
    """Term products, trial divisions tried and trial divisions failed of
    lv_run(5, lo, hi)."""
    products = tried = failed = 0
    divide, multiply = factored.try_exact_div, LaurentPoly.__mul__

    def counting(n, d):
        nonlocal tried, failed
        q = divide(n, d)
        tried += 1
        failed += q is None
        return q

    def counting_mul(a, b):
        nonlocal products
        products += len(a.terms) * len(b.terms)
        return multiply(a, b)

    with monkeypatch.context() as m:
        m.setattr(factored, "try_exact_div", counting)
        m.setattr(LaurentPoly, "__mul__", counting_mul)
        lv_run(5, lo, hi)
    return products, tried, failed


def test_work_of_a_run_depends_only_on_its_input(monkeypatch):
    # the window translated by 3 relabels every index and variable, and an
    # unrelated run registers variables in between; the schedule is
    # 3-periodic and the rows and columns of an exchange matrix come in
    # index order, so the same products meet the same bases
    base = _work(monkeypatch, -18, 20)
    assert _work(monkeypatch, -15, 23) == base
    assert _work(monkeypatch, -24, 14) == base
    liouville_run(5, 3)
    lv_run(3, 31, 57, SemifieldTag.TROPICAL)
    assert _work(monkeypatch, -18, 20) == base
    assert min(base) > 0


def test_failed_divisor_is_not_tried_again(monkeypatch):
    # 1/(A D) + E/(A D) with E = x1 + x2 + x1 x2: the sum's base
    # (1 + x1)(1 + x2) fails against A = 1 + x0, divides by D = 1 + x1, and
    # the quotient 1 + x2 must not be tried against A again
    x0, x1, x2 = (Factored.variable(xvar(i)) for i in range(3))
    one = Factored.one()
    den = ((one + x0) * (one + x1)) ** -1
    a, b = den, (x1 + x2 + x1 * x2) * den
    calls = []
    divide = factored.try_exact_div

    def recording(n, d):
        q = divide(n, d)
        calls.append((d, q is not None))
        return q

    with monkeypatch.context() as m:
        m.setattr(factored, "try_exact_div", recording)
        total = a + b
    assert total == (one + x2) / (one + x0)
    assert [ok for _, ok in calls][:2] == [False, True]
    failed = [d for d, ok in calls if not ok]
    assert len(failed) == len(set(failed))


def _bases(state) -> list[LaurentPoly]:
    """The distinct bases that the values of a run hold."""
    return list({
        id(p): p
        for seed in state.seeds
        for v in (*seed.x.values(), *seed.y.values())
        for p in v.powers
    }.values())


def test_bases_of_a_constant_coefficient_run_hold_ints():
    # the y values are the constants delta, 1 and 1/delta, so Fraction
    # coefficients enter every sum; the bases must still hold plain ints
    bases = _bases(lv_run(5, -45, 47, delta=1))
    assert bases
    assert all(type(c) is int for p in bases for c in p.terms.values())


def test_bases_of_the_digest_runs_have_positive_coefficients():
    # the golden factored-form digests print bases, whose sign follows the
    # order in which variables were registered; with every coefficient
    # positive, no choice of the term that fixes the sign can flip one
    for args in (
        (5, -18, 20),
        (5, -45, 47, SemifieldTag.UNIVERSAL, Fraction(1)),
        (5, -15, 17, SemifieldTag.TROPICAL),
    ):
        bases = _bases(lv_run(*args))
        assert bases and all(c > 0 for p in bases for c in p.terms.values())
    # mixed signs do occur, so the check above can fail
    bases = _bases(lv_run(4, -12, 14, delta=Fraction(-3, 2)))
    assert len(bases) == 16
    assert all(min(p.terms.values()) < 0 < max(p.terms.values()) for p in bases)


def _poly(max_terms: int):
    term = st.tuples(
        st.integers(-4, 4),
        st.dictionaries(st.sampled_from((0, 1, 2)), st.integers(0, 2), max_size=3),
    )
    return st.lists(term, min_size=1, max_size=max_terms).map(
        lambda terms: sum((LaurentPoly.monomial(mono(m), c) for c, m in terms), LaurentPoly.zero())
    )


def _pending(s: LaurentPoly, cut: int, unit: int) -> list:
    """s times unit as a pending sum X + Y: its first cut terms and the rest,
    each as coefficient, monomial and one base."""
    items = sorted(s.terms.items())
    sides = []
    for part in (items[:cut], items[cut:]):
        if not part:
            sides.append([0, 0, {}])
            continue
        c, key, base = _split(LaurentPoly(dict(part)))
        sides.append([unit * c, key, {} if base is None else {base: 1}])
    return sides + [{}]


@given(
    _poly(4),
    st.integers(-6, 6).filter(bool),
    st.dictionaries(st.sampled_from((0, 1, 2)), st.integers(-2, 2), max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_a_base_does_not_depend_on_the_unit_taken_out(p, c, m):
    assume(not p.is_zero())
    coeff, key, base = _split(p)
    assert _split(LaurentPoly.monomial(mono(m), c) * p)[2] == base
    assert _split(-p)[2] == base
    if base is None:
        base = LaurentPoly.one()
    else:  # min exponents zero, content one, the least key's coefficient positive
        assert base._range()[0] == 0 and base.content() == 1 and base._t[min(base._t)] > 0
    assert base.scale(coeff)._shifted(key) == p


@given(_poly(4), _poly(4), st.integers(0, 8), st.sampled_from((1, 5 * IMAGE_PRIME)))
@settings(max_examples=200, deadline=None)
def test_image_never_rejects_a_true_divisor(d, q, cut, unit):
    # a unit that P divides maps the whole sum to zero, which proves nothing
    d = _split(d)[2] if not d.is_zero() else None
    s = None if d is None else d * q
    assume(s is not None and not s.is_zero())
    sides = _pending(s, cut, unit)
    assume(d not in sides[0][2] and d not in sides[1][2])
    assert _divide(sides, d) is None
    if _split(s)[2] == d:
        assert not _is_new(sides, {d: -1})


@given(_poly(5), _poly(3), st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_image_rejections_agree_with_exact_division(s, d, cut):
    assume(not s.is_zero() and not d.is_zero())
    d = _split(d)[2]
    assume(d is not None)
    sides = _pending(s, cut, 1)
    assume(d not in sides[0][2] and d not in sides[1][2])
    verdict = _divide(sides, d)
    assert verdict is not True
    if verdict is False:
        assert try_exact_div(s, d) is None
    if _is_new(sides, {d: -1}):
        assert _split(s)[2] != d


def test_undecided_divisor_is_divided_exactly(monkeypatch):
    # (1 + x1)/A + x0 (2 + x0 + x1)/A with A = 1 + x0: A is a factor of
    # neither cofactor and its image divides the sum's, so the sum is
    # expanded and divided exactly, to 1 + x0 + x1
    x0, x1 = (Factored.variable(xvar(i)) for i in range(2))
    one = Factored.one()
    den = (one + x0) ** -1
    a, b = (one + x1) * den, x0 * (one + one + x0 + x1) * den
    calls = []
    divide, decide = factored.try_exact_div, factored._divide

    def recording(n, d):
        q = divide(n, d)
        calls.append((len(n.terms), q is not None))
        return q

    def deciding(sides, d):
        verdict = decide(sides, d)
        calls.append(verdict)
        return verdict

    with monkeypatch.context() as m:
        m.setattr(factored, "try_exact_div", recording)
        m.setattr(factored, "_divide", deciding)
        total = a + b
    assert calls == [None, (5, True)]
    base = LaurentPoly({((xvar(0), 1),): 1, ((xvar(1), 1),): 1, (): 1})
    assert (total.coeff, total.key, total.powers) == (1, 0, {base: 1})


def test_trial_divisions_stay_within_the_largest_base(monkeypatch):
    # factored sums divide factors, not expanded sums: no dividend is
    # larger than the largest base the run holds
    sizes = []
    divide = factored.try_exact_div

    def recording(n, d):
        sizes.append(len(n.terms))
        return divide(n, d)

    with monkeypatch.context() as m:
        m.setattr(factored, "try_exact_div", recording)
        state = lv_run(5, -18, 20)
    largest = max(
        len(p.terms)
        for seed in state.seeds
        for v in (*seed.x.values(), *seed.y.values())
        for p in v.powers
    )
    assert largest == 1409
    assert sizes and max(sizes) <= largest


_BASES = [
    p
    for f in (
        Factored.variable(xvar(0)) + Factored.one(),
        Factored.variable(xvar(1)) + Factored.one(),
        Factored.variable(xvar(0)) + Factored.variable(xvar(1), 2) + Factored.constant(3),
    )
    for p in f.powers
]


@st.composite
def _factored(draw):
    """Factored values over three bases: coefficient 1 often, else another
    rational or 0, and exponents of either sign that products can cancel."""
    coeff = draw(st.sampled_from((1, 1, 1, -1, 0, 2, Fraction(-3, 4), Fraction(5, 7))))
    key = _pack(mono({xvar(v): draw(st.integers(-2, 2)) for v in range(3)}))
    powers = {p: e for p in _BASES if (e := draw(st.integers(-2, 2)))}
    return Factored(Fraction(coeff), key, powers)


def _parts(f: Factored) -> tuple:
    assert type(f.coeff) is Fraction
    assert 0 not in f.powers.values()
    return f.coeff, f.key, list(f.powers.items())


@given(_factored(), _factored(), st.integers(-3, 3))
@settings(max_examples=300, deadline=None)
def test_products_and_powers_are_the_constructors_values(a, b, n):
    merged = dict(a.powers)
    for p, e in b.powers.items():
        merged[p] = merged.get(p, 0) + e
    want = Factored(a.coeff * b.coeff, _key_mul(a.key, b.key), merged)
    assert _parts(a * b) == _parts(want)
    if a.coeff:
        assert _parts(a * a**-1) == _parts(Factored.one())
    if a.coeff == 0 and n < 0:
        with pytest.raises(ZeroDivisionError):
            a**n
        return
    if n == 0:
        want = Factored.one()
    else:
        want = Factored(a.coeff**n, _key_pow(a.key, n), {p: e * n for p, e in a.powers.items()})
    assert _parts(a**n) == _parts(want)

"""Factored values: the trial divisions of a sum do not depend on labels,
a divisor that failed is not tried again, and bases hold int coefficients
even when the values are rational."""

from clusterflow import factored
from clusterflow.algebra import xvar
from clusterflow.dynamics import lv_run
from clusterflow.factored import Factored


def _trial_divisions(monkeypatch, lo: int, hi: int) -> tuple[int, int]:
    tried = failed = 0
    divide = factored.try_exact_div

    def counting(n, d):
        nonlocal tried, failed
        q = divide(n, d)
        tried += 1
        failed += q is None
        return q

    with monkeypatch.context() as m:
        m.setattr(factored, "try_exact_div", counting)
        lv_run(5, lo, hi)
    return tried, failed


def test_trial_divisions_do_not_depend_on_variable_labels(monkeypatch):
    # the window translated by 3 relabels every variable; the schedule is
    # 3-periodic, so the same sums meet the same bases
    base = _trial_divisions(monkeypatch, -18, 20)
    assert _trial_divisions(monkeypatch, -15, 23) == base
    assert base[1] > 0


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


def test_bases_of_a_constant_coefficient_run_hold_ints():
    # the y values are the constants delta, 1 and 1/delta, so Fraction
    # coefficients enter every sum; the bases must still hold plain ints
    state = lv_run(5, -45, 47, delta=1)
    bases = {
        id(p): p
        for seed in state.seeds
        for v in (*seed.x.values(), *seed.y.values())
        for p in v.powers
    }
    assert bases
    assert all(type(c) is int for p in bases.values() for c in p.terms.values())

"""Factored values: the trial divisions of a sum do not depend on labels."""

from clusterflow import factored
from clusterflow.dynamics import lv_run


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

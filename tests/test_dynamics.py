"""Lattice dynamics: Lotka-Volterra, tau functions, discrete Liouville."""

from fractions import Fraction

import pytest

from clusterflow import dynamics
from clusterflow.algebra import SemifieldTag
from clusterflow.dynamics import (
    LatticeZeroDivision,
    MarginExhausted,
    d_liu_residual,
    identify_lv,
    liouville_initial_brackets,
    liouville_report,
    liouville_run,
    lv_initial_brackets,
    lv_report,
    lv_run,
    lv_tau_lattice,
    somos_sequence,
    tau_run,
    tn_from_ui,
    ui_from_tn,
    x_rel_residual,
    y_rel_residual,
    yhat_rel_residual,
)
from clusterflow.factored import Factored
from clusterflow.seeds import one_plus
from clusterflow.verify import tau_suite


class TestSomos:
    def test_first_ten_terms(self):
        assert somos_sequence(10) == [
            Fraction(v) for v in (1, 1, 1, 1, 2, 3, 7, 23, 59, 314)
        ]

    def test_integrality(self):
        assert all(t.denominator == 1 for t in somos_sequence(20))


class TestLVRun:
    LO, HI = -12, 14

    def test_x_residuals_vanish(self):
        state = lv_run(3, self.LO, self.HI)
        checked = 0
        for u, i in state.forward_points():
            try:
                r = x_rel_residual(state, u, i)
            except MarginExhausted:
                continue
            assert r.is_zero()
            checked += 1
        assert checked > 0

    def test_y_relation_holds(self):
        for tag in SemifieldTag:
            state = lv_run(3, self.LO, self.HI, tag=tag)
            checked = 0
            for u, i in state.forward_points():
                try:
                    r = y_rel_residual(state, u, i)
                except MarginExhausted:
                    continue
                assert r.is_zero()
                checked += 1
            assert checked > 0

    def test_yhat_residuals_vanish(self):
        # the dressed-coefficient stencil reaches five layers up, so this
        # needs a deeper run on a wider window than the plain relations
        state = lv_run(5, -18, 20)
        checked = 0
        for u, i in state.forward_points():
            try:
                r = yhat_rel_residual(state, u, i)
            except MarginExhausted:
                continue
            assert r.is_zero()
            checked += 1
        assert checked > 0

    def test_report_all_zero(self):
        for tag in (SemifieldTag.UNIVERSAL, SemifieldTag.TRIVIAL):
            state = lv_run(3, self.LO, self.HI, tag=tag)
            recs = lv_report(state)
            assert recs and all(r["residual_zero"] for r in recs)
            # trivial coefficients are checked like any others
            assert any(r["relation"] == "y-rel" for r in recs)

    def test_margin_enforced(self):
        state = lv_run(2, -6, 6)
        with pytest.raises(MarginExhausted):
            state.x(2, -6)


def _parts(f: Factored) -> tuple:
    return f.coeff, f.key, list(f.powers.items())


class TestStoredSums:
    def test_each_stored_sum_is_the_recomputed_one(self):
        state = lv_run(4, -15, 17)
        for before, after in zip(state.seeds, state.seeds[1:]):
            assert after.sums
            for k, s in after.sums.items():
                assert _parts(s) == _parts(one_plus(state.tag, before.y[k]))

    def test_one_plus_y_raises_where_it_did(self):
        # before the sums were stored, one_plus_y was one_plus of y(u, i)
        for tag in SemifieldTag:
            state = lv_run(4, -15, 17, tag=tag)
            raised = 0
            for u in range(-1, state.depth + 2):
                for i in range(state.lo - 1, state.hi + 2):
                    try:
                        want = one_plus(tag, state.y(u, i))
                    except MarginExhausted:
                        with pytest.raises(MarginExhausted):
                            state.one_plus_y(u, i)
                        raised += 1
                        continue
                    assert _parts(state.one_plus_y(u, i)) == _parts(want)
            assert raised

    def test_lv_report_reads_every_sum_it_needs(self, monkeypatch):
        # criterion 4's run: every 1 (+) y_i(u) of its residuals was formed
        # by the layer that mutated at i
        state = lv_run(6, -24, 26)
        calls = []
        monkeypatch.setattr(dynamics, "one_plus", lambda *a: calls.append(a))
        records = lv_report(state)
        assert calls == []
        assert len(records) == 69 and all(r["residual_zero"] for r in records)


class TestTauIdentification:
    def test_index_maps_inverse(self):
        for u in range(-5, 6):
            for i in range(-5, 6):
                if (u - i) % 3 == 0:
                    t, n = tn_from_ui(u, i)
                    assert ui_from_tn(t, n) == (u, i)

    def test_delta_one(self):
        state = lv_run(3, -12, 14, delta=Fraction(1))
        lattice = lv_tau_lattice(state)
        rep = identify_lv(state, lattice)
        assert rep.ok, rep.mismatches
        assert rep.sites_compared > 0 and rep.u_sites_compared > 0

    def test_delta_two_thirds(self):
        state = lv_run(2, -9, 10, delta=Fraction(2, 3))
        lattice = lv_tau_lattice(state)
        rep = identify_lv(state, lattice)
        assert rep.ok, rep.mismatches

    def test_independent_lattice_catches_a_wrong_seed_value(self):
        # the recursion carries a wrong seeded tau value into the sites it
        # computes, and identify_lv reports them
        state = lv_run(4, -12, 14, delta=Fraction(1))
        seed = lv_tau_lattice(state, max_u=2).tau
        assert identify_lv(state, tau_run(state.delta, seed, 2)).ok
        seed[(0, 0)] = Factored.constant(2) * seed[(0, 0)]
        rep = identify_lv(state, tau_run(state.delta, seed, 2))
        assert not rep.ok
        assert any(site not in seed for _, site in rep.mismatches)

    def test_tau_suite_needs_computed_sites(self):
        (rec,) = tau_suite(depth=4, lo=-12, hi=14)
        assert rec["ok"] and rec["witness"]["computed"] == 4
        # at depth 2 the recursion runs no pass, so nothing is checked
        (rec,) = tau_suite(depth=2, lo=-9, hi=10)
        assert not rec["ok"] and rec["witness"]["computed"] == 0

    def test_u1_residuals(self):
        state = lv_run(3, -12, 14, delta=Fraction(1))
        lattice = lv_tau_lattice(state)
        checked = 0
        for (n, t) in list(lattice.tau):
            r = lattice.u1_residual(n, t)
            if r is None:
                continue
            assert r.is_zero()
            checked += 1
        assert checked > 0


class TestLiouville:
    def test_residuals_vanish(self):
        for N in (4, 5, 6):
            state = liouville_run(N, 3)
            recs = liouville_report(state)
            assert recs and all(r["residual_zero"] for r in recs)

    def test_ring_of_two_rejected(self):
        with pytest.raises(ValueError):
            liouville_run(2, 1)


class TestBracketTables:
    def test_lv_initial_pattern(self):
        cy = Fraction(3)
        table = lv_initial_brackets(cy, -2, 2)
        assert table
        for (i, j), r in table.items():
            want = -cy if j == i else cy if j == i - 1 else Fraction(0)
            assert r == want, (i, j, r)

    def test_liouville_even(self):
        cy = Fraction(2)
        for N in (4, 6):
            m = N // 2
            table = liouville_initial_brackets(N, cy)
            for (k, j), r in table.items():
                want = -cy * ((j == k) + (j == (k - 1) % m))
                assert r == want, (N, k, j, r)

    def test_liouville_odd(self):
        cy = Fraction(2)
        N = 5
        table = liouville_initial_brackets(N, cy)
        for (i, j), r in table.items():
            want = -cy * ((j == (i + 1) % N) + (j == (i - 1) % N))
            assert r == want, (i, j, r)

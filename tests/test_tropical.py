"""C/G-matrix walks, F-polynomials, and the separation reconstruction."""

import random

import pytest

from clusterflow import tropical
from clusterflow.algebra import LaurentPoly, RatFunc, xvar, yvar
from clusterflow.matrices import ExchangeMatrix, a2_matrix, somos4_matrix
from clusterflow.tropical import (
    BranchDisagreement,
    c_walk,
    check_g_inverse,
    f_polynomials,
    g_matrix,
    separation_check,
    tropical_leading,
)
from clusterflow.verify import bounded_word, random_skew_matrix


class TestCWalk:
    def test_empty_word_is_identity(self):
        (_, c0), = c_walk(a2_matrix(), ())
        assert c0 == [[1, 0], [0, 1]]

    def test_a2_single_step(self):
        steps = c_walk(a2_matrix(), (0,))
        _, c1 = steps[-1]
        assert c1 == [[-1, 1], [0, 1]]

    def test_involutive_word(self):
        steps = c_walk(somos4_matrix(), (2, 2))
        _, cend = steps[-1]
        assert cend == [[int(i == j) for j in range(4)] for i in range(4)]

    def test_matrix_walk_matches_direct_mutation(self):
        word = (0, 1, 0)
        steps = c_walk(a2_matrix(), word)
        b = a2_matrix()
        for k, (bw, _) in zip(word, steps[1:]):
            b = b.mutate(k)
            assert bw.to_dense() == b.to_dense()

    def test_walks_coefficients_only(self, monkeypatch):
        # the tropical side of the walk never forms a cluster variable's
        # exchange quotient
        def no_quotient(num, den):
            raise AssertionError("c_walk computed a cluster variable")

        monkeypatch.setattr(RatFunc, "__truediv__", no_quotient)
        steps = c_walk(somos4_matrix(), (0, 1, 2, 3, 0))
        assert len(steps) == 6

    def test_tropical_disagreement_is_an_error(self, monkeypatch):
        mutate = tropical.mutate_coefficients

        def off_by_one(matrix, y, k, tag):
            new_y, one_plus = mutate(matrix, y, k, tag)
            new_y[k] = new_y[k] * y[k] ** -1
            return new_y, one_plus

        monkeypatch.setattr(tropical, "mutate_coefficients", off_by_one)
        with pytest.raises(BranchDisagreement, match=r"after word \(0,\)"):
            c_walk(a2_matrix(), (0, 1))


class TestGMatrix:
    def test_inverse_relation_along_random_walks(self):
        rng = random.Random(3)
        for _ in range(6):
            B = random_skew_matrix(rng, rng.randint(2, 4))
            word = bounded_word(rng, B, 5)
            for _, c in c_walk(B, word):
                g = g_matrix(c)
                assert check_g_inverse(c, g)


class TestFPolynomials:
    def test_initial_are_one(self):
        f = f_polynomials(a2_matrix(), ())
        assert all(p.is_one() for p in f.values())

    def test_a2_single_step(self):
        f = f_polynomials(a2_matrix(), (0,))
        one = LaurentPoly.one()
        y0 = LaurentPoly.variable(yvar(0))
        assert f[0] == one + y0
        assert f[1].is_one()

    def test_constant_term_one_along_walk(self):
        word = (0, 1, 0, 1, 0)
        for depth in range(len(word) + 1):
            f = f_polynomials(a2_matrix(), word[:depth])
            for p in f.values():
                assert p.is_polynomial()
                assert p.constant_term() == 1


class TestSeparation:
    def test_a2_pentagon_word(self):
        rep = separation_check(a2_matrix(), (0, 1, 0, 1, 0))
        assert rep.ok

    def test_somos_short_word(self):
        rep = separation_check(somos4_matrix(), (0, 1))
        assert rep.ok

    def test_witness_five_steps(self):
        # expanding its universal cluster variables ran for minutes; the
        # comparison in factored form needs no expansion
        witness = ExchangeMatrix.from_dense([[0, -2, 1], [2, 0, 1], [-1, -1, 0]])
        rep = separation_check(witness, (0, 2, 1, 0, 2))
        assert rep.ok

    def test_wrong_g_or_f_is_caught(self, monkeypatch):
        g_matrix, f_polynomials = tropical.g_matrix, tropical.f_polynomials

        def bad_g(c):
            g = [row[:] for row in g_matrix(c)]
            g[0][0] += 1
            return g

        def bad_f(matrix, word):
            f = dict(f_polynomials(matrix, word))
            f[1] = f[1] + LaurentPoly.variable(yvar(0))
            return f

        monkeypatch.setattr(tropical, "g_matrix", bad_g)
        rep = separation_check(somos4_matrix(), (0, 1, 2))
        assert not rep.x_match[0] and all(rep.y_match.values())
        monkeypatch.setattr(tropical, "g_matrix", g_matrix)
        monkeypatch.setattr(tropical, "f_polynomials", bad_f)
        rep = separation_check(somos4_matrix(), (0, 1, 2))
        assert not rep.x_match[1] and not rep.y_match[0]

    def test_tropical_leading_matches_c_columns(self):
        rep = separation_check(a2_matrix(), (0, 1, 0))
        assert rep.tropical_match


def test_skew_symmetrizable_warns():
    B = ExchangeMatrix.from_dense([[0, 2], [-1, 0]])
    with pytest.warns(UserWarning):
        c_walk(B, (0,))

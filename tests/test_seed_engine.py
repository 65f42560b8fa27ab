"""Seed mutation: exchange relations, involutivity, Laurent phenomenon."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterflow.algebra import RatFunc, SemifieldTag, var_kind, xvar, yvar
from clusterflow.factored import Factored
from clusterflow.matrices import (
    ExchangeMatrix,
    NotSkewSymmetrizable,
    a2_matrix,
    lv_matrix,
    somos4_matrix,
)
from clusterflow.seeds import CommutationError, Seed, apply_word, mutate_many, mutate_seed
from clusterflow.verify import bounded_word, random_skew_matrix


def rat_x(i, e=1):
    return RatFunc.variable(xvar(i), e)


def rat_y(i, e=1):
    return RatFunc.variable(yvar(i), e)


@st.composite
def sparse_skew_symmetrizable(draw):
    """D B skew-symmetric for D = diag(d), with most entries zero so that
    some sets of indices do not interact."""
    n = draw(st.integers(2, 8))
    idx = sorted(draw(st.sets(st.integers(-9, 9), min_size=n, max_size=n)))
    d = [draw(st.integers(1, 2)) for _ in idx]
    entries = {}
    for a in range(n):
        for b in range(a + 1, n):
            s = draw(st.sampled_from((0, 0, 0, 1, -1, 2)))
            entries[idx[a], idx[b]] = s * d[b]
            entries[idx[b], idx[a]] = -s * d[a]
    return ExchangeMatrix(idx, entries)


def first_interaction(B: ExchangeMatrix, ks) -> str | None:
    """The message of the first interacting pair in ascending order, by
    looking up every pair's entries."""
    ks = sorted(set(ks))
    for a in range(len(ks)):
        for b in range(a + 1, len(ks)):
            i, j = ks[a], ks[b]
            if B.entry(i, j) or B.entry(j, i):
                return f"indices {i} and {j} interact: b({i},{j})={B.entry(i, j)}"
    return None


class TestExchangeRelation:
    def test_a2_first_mutation_trivial(self):
        seed = mutate_seed(Seed.initial(a2_matrix(), SemifieldTag.TRIVIAL), 0)
        # b_{10} = -1 so x0' = (1 + x1) / x0
        assert seed.x[0].expand() == (RatFunc.one() + rat_x(1)) / rat_x(0)
        assert seed.x[1].expand() == rat_x(1)

    def test_somos_first_mutation_trivial(self):
        seed = mutate_seed(Seed.initial(somos4_matrix(), SemifieldTag.TRIVIAL), 0)
        want = (rat_x(1) * rat_x(3) + rat_x(2) ** 2) / rat_x(0)
        assert seed.x[0].expand() == want

    def test_a2_y_mutation_universal(self):
        seed = mutate_seed(Seed.initial(a2_matrix(), SemifieldTag.UNIVERSAL), 0)
        assert seed.y[0].expand() == rat_y(0, -1)
        # b_{01} = 1 > 0: y1' = y1 y0 (1 + y0)^{-1}
        assert seed.y[1].expand() == rat_y(1) * rat_y(0) / (RatFunc.one() + rat_y(0))

    def test_a2_x_mutation_universal_has_coefficient(self):
        seed = mutate_seed(Seed.initial(a2_matrix(), SemifieldTag.UNIVERSAL), 0)
        # b_{10} = -1: x0' = (y0 + x1) / ((1 + y0) x0)
        want = (rat_y(0) + rat_x(1)) / ((RatFunc.one() + rat_y(0)) * rat_x(0))
        assert seed.x[0].expand() == want

    def test_matrix_mutation_rule(self):
        B = somos4_matrix()
        Bm = B.mutate(0)
        # entries touching k flip sign; the rest gain sgn(b_ik)[b_ik b_kj]_+
        for j in range(1, 4):
            assert Bm.entry(0, j) == -B.entry(0, j)
        for i in range(1, 4):
            for j in range(1, 4):
                bik, bkj = B.entry(i, 0), B.entry(0, j)
                bump = (1 if bik > 0 else -1) * max(bik * bkj, 0)
                assert Bm.entry(i, j) == B.entry(i, j) + bump
        assert Bm.mutate(0).to_dense() == B.to_dense()


class TestInvolutivity:
    @pytest.mark.parametrize("tag", list(SemifieldTag), ids=lambda t: t.value)
    @given(st.integers(0, 10_000), st.integers(2, 4))
    @settings(max_examples=15, deadline=None)
    def test_double_mutation_is_identity(self, tag, rng_seed, n):
        rng = random.Random(rng_seed)
        B = random_skew_matrix(rng, n)
        word = bounded_word(rng, B, 3)
        seed = apply_word(Seed.initial(B, tag), word)
        assert all(isinstance(v, Factored) for v in seed.x.values())
        assert all(isinstance(v, Factored) for v in seed.y.values())
        for k in B.indices:
            back = mutate_seed(mutate_seed(seed, k), k)
            assert back.matrix == seed.matrix
            assert all(back.x[i] == seed.x[i] for i in B.indices)
            assert all(back.y[i] == seed.y[i] for i in B.indices)


class TestLaurent:
    # with monomial coefficients a cluster variable is a Laurent polynomial;
    # a universal one is Laurent in x over rational functions of y, so its
    # reduced denominator holds y variables only
    @pytest.mark.parametrize(
        "tag",
        [SemifieldTag.TROPICAL, SemifieldTag.TRIVIAL, SemifieldTag.UNIVERSAL],
        ids=lambda t: t.value,
    )
    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_cluster_variables_are_laurent(self, tag, rng_seed):
        rng = random.Random(rng_seed)
        B = random_skew_matrix(rng, 3)
        word = bounded_word(rng, B, 4)
        seed = apply_word(Seed.initial(B, tag), word)
        for i in B.indices:
            assert isinstance(seed.x[i], Factored)
            assert isinstance(seed.y[i], Factored)
            den = seed.x[i].expand().den
            if tag is SemifieldTag.UNIVERSAL:
                assert all(var_kind(v)[0] == "y" for v in den.variables())
            else:
                assert den.is_one()


class TestCompositeMutation:
    def test_commuting_pair(self):
        # indices 0 and 3 are non-adjacent in the a2 + a2 direct sum
        dense = [
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, -1, 0],
        ]
        B = ExchangeMatrix.from_dense(dense)
        seed = Seed.initial(B, SemifieldTag.UNIVERSAL)
        both = mutate_many(seed, [0, 2])
        seq = mutate_seed(mutate_seed(seed, 0), 2)
        assert both.matrix == seq.matrix
        assert all(both.x[i] == seq.x[i] for i in B.indices)

    def test_adjacent_pair_rejected(self):
        seed = Seed.initial(a2_matrix(), SemifieldTag.UNIVERSAL)
        with pytest.raises(CommutationError):
            mutate_many(seed, [0, 1])

    def test_first_interacting_pair_is_named(self):
        seed = Seed.initial(lv_matrix().window(-6, 6), SemifieldTag.TRIVIAL)
        with pytest.raises(CommutationError) as err:
            mutate_many(seed, [6, 3, 0, 1, -6, 4])
        assert str(err.value) == "indices 0 and 1 interact: b(0,1)=1"
        # a matrix with b(1,0) alone is refused before any mutation
        with pytest.raises(NotSkewSymmetrizable):
            ExchangeMatrix((0, 1, 2), {(1, 0): 1})

    @given(sparse_skew_symmetrizable(), st.lists(st.integers(0, 7), max_size=3), st.sets(st.integers(0, 7)))
    @settings(max_examples=150, deadline=None)
    def test_interaction_check_is_the_pairwise_one(self, B, word, picks):
        for k in word:
            B = B.mutate(B.indices[k % B.n])
        ks = [B.indices[p % B.n] for p in picks]
        seed = Seed.initial(B, SemifieldTag.TRIVIAL)
        want = first_interaction(B, ks)
        if want is None:
            M = B
            for k in sorted(set(ks)):
                M = M.mutate(k)
            assert mutate_many(seed, ks).matrix == M
            return
        with pytest.raises(CommutationError) as err:
            mutate_many(seed, ks)
        assert str(err.value) == want


class TestSemifields:
    def test_tropical_y_stay_monomial(self):
        seed = Seed.initial(a2_matrix(), SemifieldTag.TROPICAL)
        for k in (0, 1, 0, 1, 0):
            seed = mutate_seed(seed, k)
            # tropical coefficients are Laurent monomials in the initial y
            for i in seed.matrix.indices:
                assert seed.y[i].coeff == 1 and not seed.y[i].powers

    def test_trivial_matches_universal_at_y_one_up_to_constant(self):
        # setting all y to 1 turns each semifield sum 1 (+) y into 2 instead
        # of 1, so the universal value differs from the trivial one by a
        # positive rational constant only
        word = (0, 1, 0)
        triv = apply_word(Seed.initial(a2_matrix(), SemifieldTag.TRIVIAL), word)
        univ = apply_word(Seed.initial(a2_matrix(), SemifieldTag.UNIVERSAL), word)
        ones = {yvar(i): () for i in (0, 1)}
        for i in (0, 1):
            x = univ.x[i].expand()
            ratio = RatFunc(x.num.substitute(ones), x.den.substitute(ones)) / triv.x[i].expand()
            assert ratio.is_constant() and ratio.constant_value() > 0

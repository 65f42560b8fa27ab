"""Exchange matrices (finite and periodic banded) and exact linear algebra."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from clusterflow import linalg
from clusterflow.matrices import (
    ExchangeMatrix,
    NAMED_MATRICES,
    PeriodicBandedMatrix,
    liouville_even_matrix,
    liouville_odd_matrix,
    lv_matrix,
    lv_periodic_matrix,
    matrix_from_json,
    named_matrix,
    somos4_matrix,
)


class TestNamedMatrices:
    def test_all_names_resolve(self):
        for name in NAMED_MATRICES:
            m = named_matrix(name, 3)
            assert isinstance(m, (ExchangeMatrix, PeriodicBandedMatrix))

    def test_json_roundtrip(self):
        B = somos4_matrix()
        back = matrix_from_json(B.to_json())
        assert back.to_dense() == B.to_dense()


class TestPeriodicBanded:
    def test_lv_window_entries_shift_invariant(self):
        W = lv_matrix().window(-9, 9)
        for i in range(-6, 4):
            for j in range(-6, 4):
                assert W.entry(i, j) == W.entry(i + 3, j + 3)

    def test_lv_band_structure(self):
        W = lv_matrix().window(-9, 9)
        for i in range(-6, 7):
            for j in range(-6, 7):
                if abs(i - j) > 3:
                    assert W.entry(i, j) == 0

    def test_window_is_skew(self):
        W = lv_matrix().window(-6, 6)
        assert linalg.is_skew(W.to_dense())

    def test_periodic_closure_is_skew(self):
        for m in (3, 4):
            assert linalg.is_skew(lv_periodic_matrix(m).to_dense())


def rebuilt(B: ExchangeMatrix, k: int) -> dict:
    """The mutation rule on every entry, rebuilt in full: b_ij negated in
    row and column k, else plus (|b_ik| b_kj + b_ik |b_kj|) / 2."""
    col_k, row_k = B.column(k), B.row(k)
    touched = set(B.data)
    touched.update((i, j) for i in col_k for j in row_k)
    new = {}
    for i, j in touched:
        v = B.entry(i, j)
        if k in (i, j):
            v = -v
        else:
            bik, bkj = col_k.get(i, 0), row_k.get(j, 0)
            v += (abs(bik) * bkj + bik * abs(bkj)) // 2
        if v:
            new[i, j] = v
    return new


def assert_adjacency_is_fresh(M: ExchangeMatrix) -> None:
    """M's row and column maps are those of a matrix built anew from its
    entries, entry order included (index order)."""
    fresh = ExchangeMatrix(M.indices, M.data)
    for i in M.indices:
        assert list(M.row(i).items()) == list(fresh.row(i).items())
        assert list(M.column(i).items()) == list(fresh.column(i).items())


@st.composite
def skew_symmetrizable(draw):
    """D B skew-symmetric for D = diag(d): b_ij = s_ij d_j, b_ji = -s_ij d_i."""
    n = draw(st.integers(2, 6))
    idx = sorted(draw(st.sets(st.integers(-9, 9), min_size=n, max_size=n)))
    d = [draw(st.integers(1, 2)) for _ in idx]
    entries = {}
    for a in range(n):
        for b in range(a + 1, n):
            s = draw(st.integers(-2, 2))
            entries[idx[a], idx[b]] = s * d[b]
            entries[idx[b], idx[a]] = -s * d[a]
    return ExchangeMatrix(idx, entries)


@given(skew_symmetrizable(), st.lists(st.integers(0, 5), min_size=1, max_size=6))
@settings(max_examples=120, deadline=None)
def test_mutation_changes_only_what_the_rule_changes(B, picks):
    for pick in picks:
        k = B.indices[pick % B.n]
        M = B.mutate(k)
        assert M.data == rebuilt(B, k)
        assert_adjacency_is_fresh(M)
        assert ExchangeMatrix(M.indices, M.data, check=True) == M
        assert M.mutate(k) == B
        B = M


def test_lv_window_mutation_follows_the_rule():
    W = lv_matrix().window(-12, 14)
    for k in (0, 1, 2, -12, 14, 0):
        M = W.mutate(k)
        assert M.data == rebuilt(W, k)
        assert_adjacency_is_fresh(M)
        assert M.mutate(k) == W
        W = M


class TestLiouvilleMatrices:
    def test_even_invertible_for_m_three(self):
        B = liouville_even_matrix(3)
        assert linalg.det(B.to_dense()) != 0

    def test_even_singular_for_m_two(self):
        B = liouville_even_matrix(2)
        assert linalg.det(B.to_dense()) == 0

    def test_odd_size(self):
        B = liouville_odd_matrix(2)
        assert B.n == 2 * 5  # doubled coordinates on a ring of five


class TestLinalg:
    def test_inverse_roundtrip(self):
        m = [[Fraction(v) for v in row] for row in [[2, 1, 0], [1, 3, 1], [0, 1, 2]]]
        inv = linalg.inverse(m)
        assert linalg.mat_eq(linalg.mat_mul(m, inv), linalg.identity(3))

    def test_nullspace_orthogonal_to_rows(self):
        m = [[Fraction(v) for v in row] for row in [[1, 2, 3], [2, 4, 6]]]
        basis = linalg.nullspace(m)
        assert len(basis) == 2
        for vec in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, vec)) == 0

    def test_rank(self):
        m = [[Fraction(v) for v in row] for row in [[1, 2], [2, 4]]]
        assert linalg.rank(m) == 1

    def test_singular_inverse_is_none(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert linalg.inverse(m) is None

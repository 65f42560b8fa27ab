"""Differential tests of the exact linear algebra against sympy.

Sparse rational matrices (zero rows and columns, the all-zero matrix, 1 x n
and n x 1 shapes, integer-only and fractional entries) are multiplied,
row-reduced, inverted and solved by clusterflow.linalg and by sympy.  The
reduced row echelon form is unique, so rref, rank, inverse, solve and det
must agree exactly; nullspace must return the basis read off sympy's rref by
the same rule.  sympy is a test-only dependency.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from clusterflow import linalg  # noqa: E402


@st.composite
def sparse_matrix(draw, rows=None, cols=None):
    r = rows if rows is not None else draw(st.integers(1, 6))
    c = cols if cols is not None else draw(st.integers(1, 6))
    if draw(st.booleans()):
        value = st.integers(-5, 5).map(Fraction)
    else:
        value = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6))
    density = draw(st.sampled_from((0.0, 0.2, 0.5, 1.0)))
    zero_rows = draw(st.sets(st.integers(0, r - 1), max_size=r))
    zero_cols = draw(st.sets(st.integers(0, c - 1), max_size=c))
    m = [[Fraction(0)] * c for _ in range(r)]
    for i in range(r):
        for j in range(c):
            if i in zero_rows or j in zero_cols:
                continue
            if draw(st.floats(0, 1)) < density:
                m[i][j] = draw(value)
    return m


@st.composite
def product_pair(draw):
    r, k, c = (draw(st.integers(1, 6)) for _ in range(3))
    return draw(sparse_matrix(r, k)), draw(sparse_matrix(k, c))


@st.composite
def square(draw):
    n = draw(st.integers(1, 6))
    return draw(sparse_matrix(n, n))


@st.composite
def system(draw):
    a = draw(sparse_matrix())
    return a, draw(sparse_matrix(len(a), 1))


def to_sympy(a):
    return sympy.Matrix(
        [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in a]
    )


def to_fractions(m) -> list[list[Fraction]]:
    return [
        [Fraction(int(m[i, j].p), int(m[i, j].q)) for j in range(m.cols)]
        for i in range(m.rows)
    ]


def all_fractions(a) -> bool:
    return all(type(v) is Fraction for row in a for v in row)


def rref_basis(red, pivots, cols) -> list[list[Fraction]]:
    """Kernel basis from a reduced row echelon form: one vector per free
    column f, with 1 at f and minus column f of the pivot rows at the
    pivots."""
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


@given(product_pair())
@settings(max_examples=150, deadline=None)
@example(([[Fraction(0)]], [[Fraction(0), Fraction(0)]]))
@example(([[Fraction(1, 2)], [Fraction(3)]], [[Fraction(2, 3), Fraction(0)]]))
def test_mat_mul_matches_sympy(pair):
    a, b = pair
    got = linalg.mat_mul(a, b)
    assert all_fractions(got)
    assert got == to_fractions(to_sympy(a) * to_sympy(b))


@given(sparse_matrix())
@settings(max_examples=200, deadline=None)
@example([[Fraction(0)] * 3] * 2)
@example([[Fraction(0), Fraction(2, 3), Fraction(0), Fraction(-1)]])
@example([[Fraction(0)], [Fraction(5, 2)], [Fraction(0)]])
def test_rref_rank_and_nullspace_match_sympy(a):
    red, pivots = linalg.rref(a)
    want, want_pivots = to_sympy(a).rref()
    assert all_fractions(red)
    assert red == to_fractions(want)
    assert pivots == list(want_pivots)
    assert linalg.rank(a) == to_sympy(a).rank()

    cols = len(a[0])
    basis = linalg.nullspace(a)
    assert all_fractions(basis)
    assert len(basis) == cols - len(want_pivots)
    assert basis == rref_basis(to_fractions(want), list(want_pivots), cols)
    for v in basis:
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)


@given(square())
@settings(max_examples=150, deadline=None)
@example([[Fraction(0)]])
@example([[Fraction(0), Fraction(1, 3)], [Fraction(-2), Fraction(0)]])
def test_inverse_and_det_match_sympy(a):
    m = to_sympy(a)
    d = m.det()
    got_det = linalg.det(a)
    assert type(got_det) is Fraction
    assert got_det == Fraction(int(d.p), int(d.q))
    inv = linalg.inverse(a)
    if d == 0:
        assert inv is None
    else:
        assert all_fractions(inv)
        assert inv == to_fractions(m.inv())


@given(system())
@settings(max_examples=150, deadline=None)
@example(([[Fraction(0), Fraction(0)]], [[Fraction(1)]]))
@example(([[Fraction(0)], [Fraction(2, 5)]], [[Fraction(0)], [Fraction(1, 7)]]))
def test_solve_matches_sympy(sys_):
    a, bcol = sys_
    b = [row[0] for row in bcol]
    m, rhs = to_sympy(a), to_sympy(bcol)
    x = linalg.solve(a, b)
    if m.rank() != m.row_join(rhs).rank():
        assert x is None
        return
    assert x is not None and all_fractions([x])
    # sympy's solution with every free parameter set to 0 is the one read off
    # the reduced row echelon form
    sol, params = m.gauss_jordan_solve(rhs)
    sol = sol.subs({p: 0 for p in params})
    assert x == [row[0] for row in to_fractions(sol)]

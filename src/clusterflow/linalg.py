"""Exact linear algebra over Fraction.

Matrices are lists of lists of Fraction.  The point is exact rank, kernel,
and inverse computations with no tolerance.  The matrices that reach here are
mostly zeros (banded exchange matrices and the linear systems built from
them), so products and elimination visit only nonzero entries; a dense matrix
is the case where every entry is nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Matrix = list[list[Fraction]]


def mat(rows) -> Matrix:
    return [[Fraction(v) for v in row] for row in rows]


def zeros(r: int, c: int) -> Matrix:
    return [[Fraction(0)] * c for _ in range(r)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Product over the integers: each row of a and each column of b is put
    over the lcm of its denominators, so the inner loop multiplies and adds
    plain ints, visits only the nonzero entries of both, and one Fraction is
    built per output entry."""
    if not a or not b:
        return []
    col_den = [1] * len(b[0])
    for row in b:
        for j, v in enumerate(row):
            if v:
                col_den[j] = lcm(col_den[j], v.denominator)
    b_rows = [
        [(j, v.numerator * (col_den[j] // v.denominator)) for j, v in enumerate(row) if v]
        for row in b
    ]
    out = []
    for row in a:
        den = lcm(*(v.denominator for v in row if v))
        acc = [0] * len(col_den)
        for v, b_row in zip(row, b_rows):
            if v:
                s = v.numerator * (den // v.denominator)
                for j, w in b_row:
                    acc[j] += s * w
        out.append([Fraction(x, den * d) for x, d in zip(acc, col_den)])
    return out


def mat_scale(a: Matrix, c) -> Matrix:
    c = Fraction(c)
    return [[c * x for x in row] for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return a == b


def is_zero_matrix(a: Matrix) -> bool:
    return all(all(v == 0 for v in row) for row in a)


def is_skew(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == -a[j][i] for i in range(n) for j in range(n))


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    Entries left of the pivot column are already zero in the pivot row, so
    only its nonzero entries from the pivot column on are scaled and
    eliminated with, and rows with a zero in the pivot column are skipped."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pivot_row = m[r]
        inv = 1 / pivot_row[c]
        nonzero = [j for j in range(c, cols) if pivot_row[j]]
        for j in nonzero:
            pivot_row[j] *= inv
        for i in range(rows):
            f = m[i][c]
            if i != r and f != 0:
                row = m[i]
                for j in nonzero:
                    row[j] -= f * pivot_row[j]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def nullspace(a: Matrix) -> list[list[Fraction]]:
    """Basis of the right kernel {v : a v = 0}."""
    if not a:
        return []
    cols = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def solve(a: Matrix, b: list[Fraction]) -> list[Fraction] | None:
    """One solution of a x = b, or None if inconsistent."""
    if not a:
        return [] if all(v == 0 for v in b) else None
    cols = len(a[0])
    aug = [row[:] + [Fraction(bv)] for row, bv in zip(a, b)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, p in enumerate(pivots):
        x[p] = red[r][cols]
    return x


def inverse(a: Matrix) -> Matrix | None:
    n = len(a)
    eye = identity(n)
    aug = [row[:] + eye[i] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def det(a: Matrix) -> Fraction:
    n = len(a)
    m = [row[:] for row in a]
    d = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            d = -d
        d *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [v - f * w for v, w in zip(m[i], m[c])]
    return d

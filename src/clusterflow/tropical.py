"""Tropical coefficient machinery for finite exchange matrices.

Along a mutation word this module tracks the integer C-matrix (whose columns
are the exponent vectors of the tropical coefficients), derives the G-matrix
as the inverse transpose, extracts F-polynomials from a principal-coefficient
run, and verifies the coefficient separation formulas

    y'_i = (prod_j y_j^{c'_{ji}}) * prod_j F'_j(y)^{b'_{ji}},
    x'_i = (prod_j x_j^{g'_{ji}}) * F'_i(yhat) / F'_i(y),

against a direct symbolic mutation of the seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    MONO_ONE,
    LaurentPoly,
    RatFunc,
    SemifieldTag,
    mono,
    xvar,
    yvar,
)
from .factored import Factored
from .linalg import identity, inverse, mat, mat_eq, mat_mul, transpose
from .matrices import ExchangeMatrix
from .seeds import Seed, apply_word, mutate_coefficients


class BranchDisagreement(RuntimeError):
    """The two sign branches of the C-matrix recursion gave different results."""


class PolynomialityError(ValueError):
    """A candidate F-polynomial has a negative exponent or wrong constant term."""


def _warn_if_not_skew_symmetric(matrix: ExchangeMatrix) -> None:
    for i in matrix.indices:
        for j, b in matrix.row(i).items():
            if matrix.entry(j, i) != -b:
                warnings.warn(
                    "exchange matrix is skew-symmetrizable but not skew-symmetric; "
                    "tropical separation identities are applied beyond the "
                    "skew-symmetric case",
                    stacklevel=3,
                )
                return


def _c_mutate(
    c: list[list[int]], b: ExchangeMatrix, k: int, eps: int
) -> list[list[int]]:
    """One C-matrix mutation step at index k using the sign-eps form
    c''_{ji} = c'_{ji} + [eps c'_{jk}]_+ b'_{ki} + c'_{jk} [-eps b'_{ki}]_+
    (and column k negated); both eps give the same result when the recursion
    is consistent, which c_walk enforces."""
    idx = list(b.indices)
    pos = {i: p for p, i in enumerate(idx)}
    kp = pos[k]
    n = len(idx)
    out = [row[:] for row in c]
    for ip, i in enumerate(idx):
        if i == k:
            for jp in range(n):
                out[jp][kp] = -c[jp][kp]
            continue
        bki = b.entry(k, i)
        for jp in range(n):
            cjk = c[jp][kp]
            out[jp][ip] = (
                c[jp][ip] + max(eps * cjk, 0) * bki + cjk * max(-eps * bki, 0)
            )
    return out


def _tropical_c_columns(idx: list[int], y: dict[int, Factored]) -> list[list[int]]:
    """C-matrix read off tropical coefficients: column i is the exponent
    vector of the monomial y'_i."""
    exps = {i: dict(y[i].mono) for i in idx}
    return [[exps[i].get(yvar(j), 0) for i in idx] for j in idx]


def c_walk(
    matrix: ExchangeMatrix, word: tuple[int, ...] | list[int]
) -> list[tuple[ExchangeMatrix, list[list[int]]]]:
    """C-matrices along a mutation word, starting from the identity.

    Returns the visited seeds as (exchange matrix, C) pairs, including the
    initial one.  Every step is computed three ways -- both sign branches of
    the piecewise-linear recursion and an independent walk in the tropical
    semifield -- and any disagreement is a hard error naming the seed path.
    The tropical walk mutates only the coefficients and its own copy of the
    exchange matrix; it never needs the cluster variables.
    """
    _warn_if_not_skew_symmetric(matrix)
    idx = list(matrix.indices)
    n = matrix.n
    c = [[1 if r == s else 0 for s in range(n)] for r in range(n)]
    b = matrix
    trop_b = matrix
    trop_y = Seed.initial(matrix, SemifieldTag.TROPICAL).y
    out = [(b, [row[:] for row in c])]
    for step, k in enumerate(word):
        c_plus = _c_mutate(c, b, k, +1)
        c_minus = _c_mutate(c, b, k, -1)
        trop_y, _ = mutate_coefficients(trop_b, trop_y, k, SemifieldTag.TROPICAL)
        trop_b = trop_b.mutate(k)
        c_trop = _tropical_c_columns(idx, trop_y)
        if not (c_plus == c_minus == c_trop):
            raise BranchDisagreement(
                f"C-matrix branches disagree after word {tuple(word[: step + 1])}: "
                f"plus={c_plus} minus={c_minus} tropical={c_trop}"
            )
        c = c_plus
        b = b.mutate(k)
        if b != trop_b:
            raise BranchDisagreement(
                f"matrix walks disagree after word {tuple(word[: step + 1])}"
            )
        out.append((b, [row[:] for row in c]))
    return out


def g_matrix(c: list[list[int]]) -> list[list[int]]:
    """G = (C^{-1})^T, as an exact integer matrix."""
    inv = inverse(mat(c))
    if inv is None:
        raise ValueError("C-matrix is singular")
    g = transpose(inv)
    out = []
    for row in g:
        irow = []
        for e in row:
            if e.denominator != 1:
                raise ValueError("C-matrix inverse is not integral")
            irow.append(int(e))
        out.append(irow)
    return out


def check_g_inverse(c: list[list[int]], g: list[list[int]]) -> bool:
    """Exact check that G^T C is the identity."""
    n = len(c)
    prod = mat_mul(transpose(mat(g)), mat(c))
    return mat_eq(prod, identity(n))


def f_polynomials(
    matrix: ExchangeMatrix, word: tuple[int, ...] | list[int]
) -> dict[int, LaurentPoly]:
    """F-polynomials of the seed reached by the word, from a
    principal-coefficient mutation run with every initial x_j set to 1.

    Principal coefficients means coefficients in the tropical semifield on
    the initial y-generators; the cluster variables of that run are rational
    functions of x and y, and specializing x -> 1 leaves the F-polynomials.
    Each must be a true polynomial in y with constant term 1.
    """
    _warn_if_not_skew_symmetric(matrix)
    seed = apply_word(Seed.initial(matrix, SemifieldTag.TROPICAL), word)
    ones = {xvar(j): MONO_ONE for j in matrix.indices}
    out: dict[int, LaurentPoly] = {}
    for i in matrix.indices:
        x = seed.x[i].expand()
        f = RatFunc(x.num.substitute(ones), x.den.substitute(ones))
        if not f.den.is_one():
            raise PolynomialityError(
                f"F-candidate at index {i} after word {tuple(word)} is not polynomial"
            )
        p = f.num
        if any(e < 0 for m in p.terms for _, e in m):
            raise PolynomialityError(
                f"F-candidate at index {i} after word {tuple(word)} has a "
                "negative exponent"
            )
        if p.terms.get((), Fraction(0)) != 1:
            raise PolynomialityError(
                f"F-candidate at index {i} after word {tuple(word)} has "
                "constant term != 1"
            )
        out[i] = p
    return out


def tropical_leading(y_value: RatFunc, indices) -> list[int]:
    """Exponent vector of the lowest-order y-monomial of a coefficient value:
    per-variable minimum exponent of the numerator minus the denominator's."""
    dn = dict(y_value.num.min_exponents())
    dd = dict(y_value.den.min_exponents())
    return [dn.get(yvar(j), 0) - dd.get(yvar(j), 0) for j in indices]


@dataclass(frozen=True)
class SeparationReport:
    word: tuple[int, ...]
    c: list[list[int]]
    g: list[list[int]]
    f: dict[int, LaurentPoly]
    y_match: dict[int, bool]
    x_match: dict[int, bool]
    tropical_match: dict[int, bool]
    g_inverse_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.g_inverse_ok
            and all(self.y_match.values())
            and all(self.x_match.values())
            and all(self.tropical_match.values())
        )


def separation_check(
    matrix: ExchangeMatrix, word: tuple[int, ...] | list[int]
) -> SeparationReport:
    """Reconstruct the mutated seed from (C, G, F) and compare exactly.

    The direct side is a universal-semifield mutation run.  The reconstructed
    side uses the separation formulas; yhat_i = y_i prod_j x_j^{b_{ji}} is
    built from the *initial* exchange matrix, while the monomial exponents use
    the final C, G, and exchange matrix.  Both sides are compared as
    `Factored` values, so no cluster variable is expanded; only the direct
    coefficients are, for their tropical leading terms.
    """
    word = tuple(word)
    idx = list(matrix.indices)
    walk = c_walk(matrix, word)
    b_final, c = walk[-1]
    g = g_matrix(c)
    g_ok = check_g_inverse(c, g)
    f = f_polynomials(matrix, word)

    direct = apply_word(Seed.initial(matrix, SemifieldTag.UNIVERSAL), word)

    yhat = {
        yvar(i): mono({yvar(i): 1, **{xvar(j): b for j, b in matrix.column(i).items()}})
        for i in idx
    }
    f_at_y = {i: Factored.from_poly(f[i]) for i in idx}
    f_at_yhat = {i: Factored.from_poly(f[i].substitute(yhat)) for i in idx}

    y_match: dict[int, bool] = {}
    x_match: dict[int, bool] = {}
    trop_match: dict[int, bool] = {}
    for ip, i in enumerate(idx):
        y_mono = mono({yvar(j): c[jp][ip] for jp, j in enumerate(idx)})
        recon_y = Factored.from_poly(LaurentPoly.monomial(y_mono))
        for j in idx:
            bji = b_final.entry(j, i)
            if bji:
                recon_y = recon_y * f_at_y[j] ** bji
        y_match[i] = recon_y == direct.y[i]

        x_mono = mono({xvar(j): g[jp][ip] for jp, j in enumerate(idx)})
        recon_x = (
            Factored.from_poly(LaurentPoly.monomial(x_mono))
            * f_at_yhat[i]
            / f_at_y[i]
        )
        x_match[i] = recon_x == direct.x[i]

        trop_match[i] = tropical_leading(direct.y[i].expand(), idx) == [
            c[jp][ip] for jp in range(len(idx))
        ]

    return SeparationReport(
        word=word,
        c=c,
        g=g,
        f=f,
        y_match=y_match,
        x_match=x_match,
        tropical_match=trop_match,
        g_inverse_ok=g_ok,
    )

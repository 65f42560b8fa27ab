"""Log-canonical Poisson structures compatible with seed mutation.

A Poisson matrix P assigns {x_i, x_j} = p_ij x_i x_j.  Compatibility with
mutation at every index is equivalent to PB being diagonal; PB = cD (D the
symmetrizer) makes the diagonal form persist under mutation with the constant
c invariant.  This module provides:

  * a symbolic bracket oracle (the ground truth every closed form is checked
    against),
  * the P-mutation rule with a compatibility witness on failure,
  * exact kernel solvers for PB = cD on finite matrices,
  * the closed-form solution families of PB = O for the Lotka-Volterra
    quiver (general, shift-symmetric, and periodic truncations),
  * f-variables, the extended (x,y) structure, and compatible 2-forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from . import linalg
from .algebra import (
    RatFunc,
    format_fraction,
    xvar,
    yvar,
)
from .matrices import ExchangeMatrix


class CompatibilityError(ValueError):
    """PB fails to be diagonal; carries a witness entry."""

    def __init__(self, witness: tuple[int, int], value: Fraction):
        self.witness = witness
        self.value = value
        super().__init__(f"(PB)[{witness[0]},{witness[1]}] = {value} != 0")


class PoissonMatrix:
    """Skew-symmetric rational matrix over an explicit index set.

    Only entries with i < j are stored.  The compatibility constant c of
    PB = cD may be attached (it is a mutation invariant).
    """

    __slots__ = ("indices", "data", "c", "_pos")

    def __init__(
        self,
        indices: Sequence[int],
        entries: Mapping[tuple[int, int], Fraction],
        c: Fraction | None = None,
    ):
        self.indices: tuple[int, ...] = tuple(sorted(indices))
        self._pos = {i: p for p, i in enumerate(self.indices)}
        self.data: dict[tuple[int, int], Fraction] = {}
        for (i, j), v in entries.items():
            v = Fraction(v)
            if i == j:
                if v != 0:
                    raise ValueError(f"nonzero diagonal entry p[{i},{i}] = {v}")
                continue
            if v == 0:
                continue
            if i > j:
                i, j, v = j, i, -v
            prev = self.data.get((i, j))
            if prev is not None and prev != v:
                raise ValueError(f"conflicting skew entries at ({i},{j})")
            self.data[(i, j)] = v
        self.c = Fraction(c) if c is not None else None

    @property
    def n(self) -> int:
        return len(self.indices)

    def entry(self, i: int, j: int) -> Fraction:
        if i == j:
            return Fraction(0)
        if i < j:
            return self.data.get((i, j), Fraction(0))
        return -self.data.get((j, i), Fraction(0))

    def to_dense(self) -> linalg.Matrix:
        n = self.n
        out = linalg.zeros(n, n)
        for (i, j), v in self.data.items():
            out[self._pos[i]][self._pos[j]] = v
            out[self._pos[j]][self._pos[i]] = -v
        return out

    @staticmethod
    def from_dense(
        rows: Sequence[Sequence[Fraction]],
        indices: Sequence[int] | None = None,
        c: Fraction | None = None,
    ) -> "PoissonMatrix":
        n = len(rows)
        idx = tuple(indices) if indices is not None else tuple(range(n))
        for i in range(n):
            for j in range(n):
                if Fraction(rows[i][j]) != -Fraction(rows[j][i]):
                    raise ValueError(f"matrix not skew-symmetric at ({i},{j})")
        entries = {
            (idx[i], idx[j]): Fraction(rows[i][j])
            for i in range(n)
            for j in range(i + 1, n)
            if rows[i][j]
        }
        return PoissonMatrix(idx, entries, c=c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PoissonMatrix):
            return NotImplemented
        return self.indices == other.indices and self.data == other.data

    def __repr__(self):
        return f"PoissonMatrix(n={self.n}, nnz={2 * len(self.data)})"

    def flat_pairs(self) -> dict[tuple[int, int], Fraction]:
        """Bracket coefficients keyed by flat variable ids (x-variables)."""
        return {(xvar(i), xvar(j)): v for (i, j), v in self.data.items()}

    def to_json(self) -> dict:
        entries = sorted(
            [i, j, format_fraction(v)] for (i, j), v in self.data.items()
        )
        out: dict = {"kind": "poisson", "n": self.n, "p": entries}
        if self.indices != tuple(range(self.n)):
            out["indices"] = list(self.indices)
        if self.c is not None:
            out["c"] = format_fraction(self.c)
        return out


# ---------------------------------------------------------------------------
# Symbolic bracket oracle
# ---------------------------------------------------------------------------


def bracket_from_pairs(
    pairs: Mapping[tuple[int, int], Fraction], f: RatFunc, g: RatFunc
) -> RatFunc:
    """{f, g} for the log-canonical bracket {X_v, X_w} = q_vw X_v X_w.

    pairs maps flat variable id pairs (v < w) to q_vw.
    """
    fv = f.variables()
    gv = g.variables()
    df: dict[int, RatFunc] = {}
    dg: dict[int, RatFunc] = {}

    def dfv(v: int) -> RatFunc:
        if v not in df:
            df[v] = f.derivative(v) if v in fv else RatFunc.zero()
        return df[v]

    def dgv(v: int) -> RatFunc:
        if v not in dg:
            dg[v] = g.derivative(v) if v in gv else RatFunc.zero()
        return dg[v]

    total = RatFunc.zero()
    for (v, w), q in pairs.items():
        if q == 0:
            continue
        if (v not in fv and v not in gv) or (w not in fv and w not in gv):
            continue
        inner = dfv(v) * dgv(w) - dfv(w) * dgv(v)
        if inner.is_zero():
            continue
        term = RatFunc.constant(q) * RatFunc.variable(v) * RatFunc.variable(w) * inner
        total = total + term
    return total


def symbolic_bracket(f: RatFunc, g: RatFunc, structure) -> RatFunc:
    """Oracle bracket; structure is a PoissonMatrix or ExtendedPoisson."""
    return bracket_from_pairs(structure.flat_pairs(), f, g)


def is_log_canonical(f: RatFunc, g: RatFunc, bracket_value: RatFunc) -> Fraction | None:
    """Return r with bracket_value = r f g exactly, else None."""
    if bracket_value.is_zero():
        return Fraction(0)
    ratio = bracket_value / (f * g)
    if ratio.is_constant():
        return ratio.constant_value()
    return None


# ---------------------------------------------------------------------------
# Compatibility and mutation
# ---------------------------------------------------------------------------


def pb_product(P: PoissonMatrix, B: ExchangeMatrix) -> linalg.Matrix:
    if P.indices != B.indices:
        raise ValueError("index sets differ")
    return linalg.mat_mul(P.to_dense(), B.to_dense())


def check_diagonal(P: PoissonMatrix, B: ExchangeMatrix) -> list[Fraction]:
    """Diagonal of PB; raises CompatibilityError at the first off-diagonal entry."""
    prod = pb_product(P, B)
    idx = P.indices
    for a, row in enumerate(prod):
        for b, v in enumerate(row):
            if a != b and v != 0:
                raise CompatibilityError((idx[a], idx[b]), v)
    return [prod[a][a] for a in range(len(idx))]


def compatibility_constant(P: PoissonMatrix, B: ExchangeMatrix) -> Fraction:
    """The c of PB = cD; raises CompatibilityError if PB is not of that form."""
    diag = check_diagonal(P, B)
    d = B.symmetrizer()
    c = None
    for a, i in enumerate(P.indices):
        ci = diag[a] / d[i]
        if c is None:
            c = ci
        elif c != ci:
            raise CompatibilityError((i, i), diag[a] - c * d[i])
    return c if c is not None else Fraction(0)


def mutate_poisson(
    P: PoissonMatrix, B: ExchangeMatrix, k: int, check: bool = True
) -> PoissonMatrix:
    """P-mutation at k: row/column k rebuilt, everything else unchanged.

    With check=True the precondition (PB diagonal) is verified first and a
    CompatibilityError with a witness entry is raised on failure.  check=False
    is for windowed infinite matrices where boundary entries are known-bad.
    """
    if check:
        check_diagonal(P, B)
    col_k = B.column(k)
    new = dict(P.data)
    for i in P.indices:
        if i == k:
            continue
        v = -P.entry(i, k)
        for l, blk in col_k.items():
            if blk > 0:
                v += blk * P.entry(i, l)
        key = (i, k) if i < k else (k, i)
        val = v if i < k else -v
        if val:
            new[key] = val
        else:
            new.pop(key, None)
    return PoissonMatrix(P.indices, new, c=P.c)


def mutate_poisson_many(
    P: PoissonMatrix, B: ExchangeMatrix, ks: Sequence[int], check: bool = True
) -> tuple[PoissonMatrix, ExchangeMatrix]:
    """Composite mutation of (P, B) over pairwise non-interacting indices."""
    p, b = P, B
    for k in sorted(ks):
        p = mutate_poisson(p, b, k, check=check)
        b = b.mutate(k)
    return p, b


# ---------------------------------------------------------------------------
# Kernel solver: skew P with PB = cD
# ---------------------------------------------------------------------------


def skew_kernel(B: ExchangeMatrix) -> list[tuple[PoissonMatrix, Fraction]]:
    """Basis of the space {(P, c) : P skew, PB = cD} for finite B.

    When B is invertible the space is one-dimensional, spanned by (DB^-1, 1);
    when B is singular every solution has c = 0 (PB v = cD v forces c = 0 on a
    kernel vector v) and the basis spans the skew solutions of PB = O.
    """
    idx = B.indices
    n = len(idx)
    d = B.symmetrizer()
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    pos = {p: t for t, p in enumerate(pairs)}
    ncols = len(pairs) + 1  # unknowns p_ab (a<b) and c
    bd = B.to_dense()
    rows: list[list[Fraction]] = []
    for a in range(n):
        for b in range(n):
            row = [Fraction(0)] * ncols
            # (PB)_{ab} = sum_l p_al B_lb
            for l in range(n):
                blb = bd[l][b]
                if not blb:
                    continue
                if a < l:
                    row[pos[(a, l)]] += blb
                elif l < a:
                    row[pos[(l, a)]] -= blb
            if a == b:
                row[-1] = -Fraction(d[idx[a]])
            if any(row):
                rows.append(row)
    basis = linalg.nullspace(rows) if rows else [
        [Fraction(1) if t == s else Fraction(0) for t in range(ncols)]
        for s in range(ncols)
    ]
    out = []
    for vec in basis:
        entries = {
            (idx[a], idx[b]): vec[pos[(a, b)]] for (a, b) in pairs if vec[pos[(a, b)]]
        }
        c = vec[-1]
        out.append((PoissonMatrix(idx, entries, c=c), c))
    return out


def solve_poisson(B: ExchangeMatrix, c: Fraction) -> PoissonMatrix:
    """A particular P with PB = cD (requires B invertible when c != 0)."""
    c = Fraction(c)
    if c == 0:
        return PoissonMatrix(B.indices, {}, c=Fraction(0))
    inv = linalg.inverse(B.to_dense())
    if inv is None:
        raise ValueError("B is singular; only c = 0 is possible")
    dm = B.symmetrizer_dense()
    p = linalg.mat_scale(linalg.mat_mul(dm, inv), c)
    return PoissonMatrix.from_dense(p, indices=B.indices, c=c)


# ---------------------------------------------------------------------------
# Lotka-Volterra Poisson families (PB = O for the 3-periodic band-3 quiver)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LVPoissonParams:
    """Parameters of the general skew solution of PB = O, in 3x3 blocks.

    Block (i,j) collects rows 3i..3i+2 and columns 3j..3j+2.  The diagonal
    blocks are P(0,0) shifted by commutators of the all-ones matrix with
    diagonal offsets a, b; off-diagonal blocks add a rank-one q-shift.
    """

    a0: Fraction = Fraction(0)
    b0: Fraction = Fraction(0)
    c0: Fraction = Fraction(0)
    a: Mapping[int, Fraction] = field(default_factory=dict)
    b: Mapping[int, Fraction] = field(default_factory=dict)
    q: Mapping[tuple[int, int], Fraction] = field(default_factory=dict)

    def a_at(self, i: int) -> Fraction:
        return Fraction(self.a.get(i, 0))

    def b_at(self, i: int) -> Fraction:
        return Fraction(self.b.get(i, 0))

    def q_at(self, i: int, j: int) -> Fraction:
        return Fraction(self.q.get((i, j), 0))

    def block(self, i: int, j: int) -> list[list[Fraction]]:
        p00 = [
            [Fraction(0), Fraction(self.a0), Fraction(self.b0)],
            [-Fraction(self.a0), Fraction(0), Fraction(self.c0)],
            [-Fraction(self.b0), -Fraction(self.c0), Fraction(0)],
        ]
        if i == j:
            if i == 0:
                return p00
            dvec = [
                Fraction(0),
                self.a_at(0) - self.a_at(i),
                self.b_at(0) - self.b_at(i),
            ]
            # (QS - SQ)_{rs} = d_r - d_s; the q_{0,i} part cancels
            return [
                [p00[r][s] + dvec[r] - dvec[s] for s in range(3)] for r in range(3)
            ]
        if i < j:
            base = self.block(i, i)
            dvec = [
                self.q_at(i, j),
                self.q_at(i, j) + self.a_at(i) - self.a_at(j),
                self.q_at(i, j) + self.b_at(i) - self.b_at(j),
            ]
            return [[base[r][s] + dvec[r] for s in range(3)] for r in range(3)]
        upper = self.block(j, i)
        return [[-upper[s][r] for s in range(3)] for r in range(3)]


@dataclass(frozen=True)
class SymLVParams:
    """Shift-symmetric subfamily: one rotation-invariant diagonal block and
    translation-invariant q-shifts (q_0 = 0 by convention)."""

    a0: Fraction = Fraction(0)
    q: Mapping[int, Fraction] = field(default_factory=dict)

    def general(self, lo: int, hi: int) -> LVPoissonParams:
        """The same structure on block indices lo..hi as a member of the
        general family: b0 = 2 a0, c0 = a0, a = b = 0, q_ij = q_{j-i}."""
        a0 = Fraction(self.a0)
        q = {
            (i, j): self.q[j - i]
            for i in range(lo, hi + 1)
            for j in range(i + 1, hi + 1)
            if j - i in self.q
        }
        return LVPoissonParams(a0=a0, b0=2 * a0, c0=a0, q=q)


def _blocks_to_poisson(
    block: Callable[[int, int], list[list[Fraction]]], lo: int, hi: int
) -> PoissonMatrix:
    indices = range(3 * lo, 3 * hi + 3)
    entries: dict[tuple[int, int], Fraction] = {}
    for bi in range(lo, hi + 1):
        for bj in range(bi, hi + 1):
            blk = block(bi, bj)
            for r in range(3):
                for s in range(3):
                    i, j = 3 * bi + r, 3 * bj + s
                    if i < j and blk[r][s]:
                        entries[(i, j)] = blk[r][s]
    return PoissonMatrix(indices, entries, c=Fraction(0))


def lv_general_P(params: LVPoissonParams, lo: int, hi: int) -> PoissonMatrix:
    """Windowed general PB = O solution on block indices lo..hi."""
    return _blocks_to_poisson(params.block, lo, hi)


def lv_symmetric_P(params: SymLVParams, lo: int, hi: int) -> PoissonMatrix:
    """Windowed shift-symmetric PB = O solution on block indices lo..hi."""
    return lv_general_P(params.general(lo, hi), lo, hi)


@dataclass(frozen=True)
class PeriodicLVParams(LVPoissonParams):
    """The general family's parameters on blocks 0..m-1 of the 3m x 3m
    periodic closure (m > 2).

    Only a_i - a_0 and b_i - b_0 enter the blocks, so the free parameters are
    a0, b0, c0, the shifts a_i, b_i for i = 1..m-1 and q_ij for i < j:
    3 + 2(m-1) + m(m-1)/2 = (m+1)(m+2)/2 of them.  For m = 3..7 this is the
    dimension of the skew kernel of PB = O, and the family spans it (checked
    exactly); with a = b = 0 the family falls short of it.
    """


def lv_periodic_P(m: int, params: PeriodicLVParams) -> PoissonMatrix:
    """The 3m x 3m skew solution of the periodically closed quiver."""
    if m <= 2:
        raise ValueError("periodic closure needs m > 2")
    return _blocks_to_poisson(params.block, 0, m - 1)


def lv_periodic_basis(m: int) -> list[PeriodicLVParams]:
    """One parameter set per free parameter of the periodic family: that
    parameter 1, every other 0."""
    one = Fraction(1)
    out = [PeriodicLVParams(a0=one), PeriodicLVParams(b0=one), PeriodicLVParams(c0=one)]
    for i in range(1, m):
        out += [PeriodicLVParams(a={i: one}), PeriodicLVParams(b={i: one})]
    out += [PeriodicLVParams(q={(i, j): one}) for i in range(m) for j in range(i + 1, m)]
    return out


def check_pb_zero_window(
    P: PoissonMatrix, B: ExchangeMatrix
) -> tuple[bool, tuple[int, int] | None]:
    """(PB)_{ij} = 0 at all safe entries: columns at least 3 (the band
    width of the LV quiver) from the window edges."""
    prod = pb_product(P, B)
    idx = P.indices
    lo, hi = idx[0], idx[-1]
    for a, i in enumerate(idx):
        for b, j in enumerate(idx):
            if min(j - lo, hi - j) < 3:
                continue
            if prod[a][b] != 0:
                return False, (i, j)
    return True, None


# ---------------------------------------------------------------------------
# f-variables, extended structure, 2-forms
# ---------------------------------------------------------------------------


def f_variables(B: ExchangeMatrix, x: Mapping[int, RatFunc]) -> dict[int, RatFunc]:
    """f_i = prod_j x_j^{b_ji}."""
    out = {}
    for i in B.indices:
        f = RatFunc.one()
        for j, bji in B.column(i).items():
            f = f * x[j] ** bji
        out[i] = f
    return out


def induced_Pf(B: ExchangeMatrix, P: PoissonMatrix) -> linalg.Matrix:
    """Coefficient matrix of the induced bracket on f-variables: B^T P B."""
    bd = B.to_dense()
    return linalg.mat_mul(linalg.mat_mul(linalg.transpose(bd), P.to_dense()), bd)


@dataclass(frozen=True)
class ExtendedPoisson:
    """Block Poisson structure on (x, y): Px arbitrary compatible, Pxy = c_y D
    diagonal, Py = c_y D B."""

    Px: PoissonMatrix
    B: ExchangeMatrix
    c_y: Fraction

    @property
    def indices(self) -> tuple[int, ...]:
        return self.B.indices

    def flat_pairs(self) -> dict[tuple[int, int], Fraction]:
        pairs = dict(self.Px.flat_pairs())
        d = self.B.symmetrizer()
        cy = Fraction(self.c_y)
        for i in self.indices:
            v = cy * d[i]
            if v:
                pairs[(xvar(i), yvar(i))] = v
        for (i, j), bij in self.B.data.items():
            if i < j:
                v = cy * d[i] * bij
                if v:
                    pairs[(yvar(i), yvar(j))] = v
        return pairs

    def py_dense(self) -> linalg.Matrix:
        return linalg.mat_mul(self.B.symmetrizer_dense(), linalg.mat_scale(self.B.to_dense(), self.c_y))

    def big_dense(self) -> linalg.Matrix:
        """The 2n x 2n block matrix [[Px, Pxy], [-Pxy^T, Py]]."""
        n = self.B.n
        px = self.Px.to_dense()
        py = self.py_dense()
        d = self.B.symmetrizer_dense()
        out = linalg.zeros(2 * n, 2 * n)
        for a in range(n):
            for b in range(n):
                out[a][b] = px[a][b]
                out[n + a][n + b] = py[a][b]
            out[a][n + a] = Fraction(self.c_y) * d[a][a]
            out[n + a][a] = -Fraction(self.c_y) * d[a][a]
        return out


def assemble_extended(
    B: ExchangeMatrix, c_x: Fraction, c_y: Fraction, Px: PoissonMatrix
) -> ExtendedPoisson:
    """Extended structure from a given Px with Px B = c_x D (any PB = O
    solution when B is singular and c_x = 0)."""
    c_x = Fraction(c_x)
    got = compatibility_constant(Px, B)
    if got != c_x:
        raise ValueError(f"Px B = {got} D but c_x = {c_x}")
    return ExtendedPoisson(Px=Px, B=B, c_y=Fraction(c_y))


@dataclass(frozen=True)
class TwoForm:
    W: linalg.Matrix  # log-coordinate coefficients
    extended: linalg.Matrix


def two_form(B: ExchangeMatrix, c_x: Fraction, c_y: Fraction, P: PoissonMatrix) -> TwoForm:
    """W = B D^{-1} and the extended block form
    [[BD^-1, -D^-1], [D^-1, c_y^-1 D^-1 P D^-1]], for P with PB = c_x D."""
    d = B.symmetrizer()
    idx = B.indices
    n = B.n
    dinv = linalg.zeros(n, n)
    for a, i in enumerate(idx):
        dinv[a][a] = Fraction(1, d[i])
    W = linalg.mat_mul(B.to_dense(), dinv)
    c_y = Fraction(c_y)
    if c_y == 0:
        raise ValueError("extended 2-form needs c_y != 0")
    if Fraction(c_x) + c_y == 0:
        raise ValueError("extended 2-form needs c_x + c_y != 0")
    pdd = linalg.mat_scale(
        linalg.mat_mul(dinv, linalg.mat_mul(P.to_dense(), dinv)), Fraction(1) / c_y
    )
    ext = linalg.zeros(2 * n, 2 * n)
    for a in range(n):
        for b in range(n):
            ext[a][b] = W[a][b]
            ext[n + a][n + b] = pdd[a][b]
        ext[a][n + a] = -dinv[a][a]
        ext[n + a][a] = dinv[a][a]
    return TwoForm(W=W, extended=ext)

"""Exchange matrices: finite skew-symmetrizable matrices and periodic banded
infinite families, plus the named examples used throughout the package.

A finite exchange matrix carries an explicit tuple of integer indices so that
windows cut out of an infinite quiver keep their original labels (which may be
negative).  A periodic banded matrix is an infinite integer matrix determined
by a period p and a rule table mapping (index class mod p, column offset) to
an entry; all entries outside the band are zero.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg


class NotSkewSymmetrizable(ValueError):
    pass


class ExchangeMatrix:
    """Finite integer exchange matrix over an explicit index set."""

    __slots__ = ("indices", "data", "_pos", "_rows", "_cols")

    def __init__(self, indices: Sequence[int], entries: Mapping[tuple[int, int], int]):
        self.indices: tuple[int, ...] = tuple(sorted(indices))
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("duplicate indices")
        self._pos = {i: p for p, i in enumerate(self.indices)}
        self.data: dict[tuple[int, int], int] = {
            k: int(v) for k, v in entries.items() if v != 0
        }
        for (i, j) in self.data:
            if i not in self._pos or j not in self._pos:
                raise ValueError(f"entry ({i},{j}) outside index set")
        self._check_sign_pattern()
        # the nonzero entries of each row and column, in index order
        self._rows: dict[int, dict[int, int]] = {i: {} for i in self.indices}
        self._cols: dict[int, dict[int, int]] = {i: {} for i in self.indices}
        for (i, j), v in sorted(self.data.items()):
            self._rows[i][j] = self._cols[j][i] = v

    def _check_sign_pattern(self) -> None:
        for (i, j), v in self.data.items():
            w = self.data.get((j, i), 0)
            if v * w > 0 or (v != 0 and w == 0):
                raise NotSkewSymmetrizable(
                    f"entries ({i},{j})={v} and ({j},{i})={w} violate the sign pattern"
                )

    # -- basic access ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.indices)

    def entry(self, i: int, j: int) -> int:
        return self.data.get((i, j), 0)

    def column(self, k: int) -> dict[int, int]:
        """{i: b_ik} over the nonzero entries, in index order; read only."""
        return self._cols[k]

    def row(self, k: int) -> dict[int, int]:
        """{j: b_kj} over the nonzero entries, in index order; read only."""
        return self._rows[k]

    def to_dense(self) -> list[list[Fraction]]:
        n = self.n
        out = linalg.zeros(n, n)
        for (i, j), v in self.data.items():
            out[self._pos[i]][self._pos[j]] = Fraction(v)
        return out

    @staticmethod
    def from_dense(rows: Sequence[Sequence[int]], indices: Sequence[int] | None = None) -> "ExchangeMatrix":
        n = len(rows)
        idx = tuple(indices) if indices is not None else tuple(range(n))
        entries = {
            (idx[i], idx[j]): int(rows[i][j])
            for i in range(n)
            for j in range(n)
            if rows[i][j]
        }
        return ExchangeMatrix(idx, entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExchangeMatrix):
            return NotImplemented
        return self.indices == other.indices and self.data == other.data

    def __repr__(self):
        return f"ExchangeMatrix(n={self.n}, indices={self.indices[:6]}{'...' if self.n > 6 else ''})"

    # -- mutation ----------------------------------------------------------

    def mutate(self, k: int) -> "ExchangeMatrix":
        """Matrix mutation at index k.  Only row k, column k and the rows and
        columns that col_k x row_k touches are rewritten; the others are
        shared with self."""
        if k not in self._pos:
            raise KeyError(f"index {k} not in matrix")
        data = self.data
        col_k, row_k = self._cols[k], self._rows[k]
        # every entry the rule changes, with 0 for one it removes
        change = {(i, k): -v for i, v in col_k.items()}
        change.update(((k, j), -v) for j, v in row_k.items())
        for i, bik in col_k.items():
            for j, bkj in row_k.items():
                # b_ij gains (|b_ik| b_kj + b_ik |b_kj|) / 2: b_ik b_kj when
                # both are positive, -b_ik b_kj when both are negative
                if i != k and j != k and (bik > 0) == (bkj > 0):
                    change[i, j] = data.get((i, j), 0) + (bik * bkj if bik > 0 else -bik * bkj)
        new = dict(data)
        rows: dict[int, dict[int, int]] = {}
        cols: dict[int, dict[int, int]] = {}
        for (i, j), v in change.items():
            if v:
                new[i, j] = v
            else:
                del new[i, j]
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, {})[i] = v
        out = object.__new__(ExchangeMatrix)
        out.indices, out._pos, out.data = self.indices, self._pos, new
        out._rows, out._cols = _rewrite(self._rows, rows), _rewrite(self._cols, cols)
        return out

    # -- symmetrizer -------------------------------------------------------

    def symmetrizer(self) -> dict[int, int]:
        """Positive integers d_i with d_i b_ij = -d_j b_ji, minimal per component."""
        d: dict[int, Fraction] = {}
        for start in self.indices:
            if start in d:
                continue
            d[start] = Fraction(1)
            queue = [start]
            while queue:
                i = queue.pop()
                for j, bij in self._rows[i].items():
                    ratio = -Fraction(bij, self.entry(j, i))
                    if ratio <= 0:
                        raise NotSkewSymmetrizable(f"sign clash at ({i},{j})")
                    val = d[i] * ratio
                    if j in d:
                        if d[j] != val:
                            raise NotSkewSymmetrizable(f"inconsistent cycle through ({i},{j})")
                    else:
                        d[j] = val
                        queue.append(j)
        # clear denominators and common factors per connected component, then
        # globally: any common positive scaling is a valid symmetrizer, so use
        # the smallest integer one
        lcm = math.lcm(*(v.denominator for v in d.values()))
        ints = {i: int(v * lcm) for i, v in d.items()}
        g = math.gcd(*ints.values())
        return {i: v // g for i, v in ints.items()}

    def symmetrizer_dense(self) -> list[list[Fraction]]:
        d = self.symmetrizer()
        n = self.n
        out = linalg.zeros(n, n)
        for i, idx in enumerate(self.indices):
            out[i][i] = Fraction(d[idx])
        return out

    # -- io ------------------------------------------------------------------

    def to_json(self) -> dict:
        entries = sorted([i, j, v] for (i, j), v in self.data.items())
        out: dict = {"kind": "finite", "n": self.n, "entries": entries}
        if self.indices != tuple(range(self.n)):
            out["indices"] = list(self.indices)
        return out


def _rewrite(
    maps: Mapping[int, dict[int, int]], changes: Mapping[int, dict[int, int]]
) -> dict[int, dict[int, int]]:
    """maps with the entries of changes set (dropped at 0): each map that
    changes touches is rebuilt in index order, and the others are shared."""
    out = dict(maps)
    for a, ch in changes.items():
        m = {**maps[a], **ch}
        out[a] = {b: m[b] for b in sorted(m) if m[b]}
    return out


class PeriodicBandedMatrix:
    """Infinite integer matrix, p-periodic along the diagonal with finite band.

    entry(i, j) = rule[(i mod p, j - i)]; zero outside the rule table.
    """

    __slots__ = ("period", "band", "rule")

    def __init__(self, period: int, band: int, rule: Mapping[tuple[int, int], int]):
        self.period = int(period)
        self.band = int(band)
        self.rule: dict[tuple[int, int], int] = {}
        for (cls, off), v in rule.items():
            if v == 0:
                continue
            if abs(off) > self.band:
                raise ValueError(f"offset {off} outside band {self.band}")
            self.rule[(cls % self.period, off)] = int(v)
        self._check_skew_pattern()

    def _check_skew_pattern(self) -> None:
        for (cls, off), v in self.rule.items():
            w = self.rule.get(((cls + off) % self.period, -off), 0)
            if off == 0 and v != 0:
                raise NotSkewSymmetrizable("nonzero diagonal entry")
            if v * w > 0 or (v != 0 and w == 0):
                raise NotSkewSymmetrizable(f"rule ({cls},{off}) violates the sign pattern")

    def entry(self, i: int, j: int) -> int:
        return self.rule.get((i % self.period, j - i), 0)

    def window(self, lo: int, hi: int) -> ExchangeMatrix:
        """Finite submatrix on indices lo..hi inclusive."""
        idx = range(lo, hi + 1)
        entries = {}
        for i in idx:
            for off in range(-self.band, self.band + 1):
                j = i + off
                if lo <= j <= hi:
                    v = self.entry(i, j)
                    if v:
                        entries[(i, j)] = v
        return ExchangeMatrix(idx, entries)

    def to_json(self) -> dict:
        rule = sorted([cls, off, v] for (cls, off), v in self.rule.items())
        return {
            "kind": "periodic_banded",
            "period": self.period,
            "band": self.band,
            "rule": rule,
        }


def matrix_from_json(data: dict) -> "ExchangeMatrix | PeriodicBandedMatrix":
    kind = data.get("kind")
    if kind == "finite":
        n = int(data["n"])
        indices = tuple(data.get("indices", range(n)))
        entries = {(int(i), int(j)): int(v) for i, j, v in data["entries"]}
        return ExchangeMatrix(indices, entries)
    if kind == "periodic_banded":
        rule = {(int(c), int(o)): int(v) for c, o, v in data["rule"]}
        return PeriodicBandedMatrix(int(data["period"]), int(data["band"]), rule)
    raise ValueError(f"unknown matrix kind {kind!r}")


def load_matrix(path: str) -> "ExchangeMatrix | PeriodicBandedMatrix":
    with open(path) as fh:
        return matrix_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# Named matrices
# ---------------------------------------------------------------------------


def a2_matrix() -> ExchangeMatrix:
    """Rank-2 matrix [[0,1],[-1,0]] (finite type, 5-periodic mutation)."""
    return ExchangeMatrix.from_dense([[0, 1], [-1, 0]])


def somos4_matrix() -> ExchangeMatrix:
    """The rank-4 quiver whose mutation sequence 1,2,3,4,... generates Somos-4."""
    return ExchangeMatrix.from_dense(
        [
            [0, -1, 2, -1],
            [1, 0, -3, 2],
            [-2, 3, 0, -1],
            [1, -2, 1, 0],
        ]
    )


def lv_matrix() -> PeriodicBandedMatrix:
    """Infinite 3-periodic band-3 quiver of the lattice Lotka-Volterra flow."""
    rule = {
        (0, 1): 1,
        (0, -1): 1,
        (0, 2): -1,
        (0, -2): -1,
        (1, 1): 1,
        (1, 2): 1,
        (1, -3): 1,
        (1, -1): -1,
        (1, -2): -1,
        (1, 3): -1,
        (2, 1): -1,
        (2, -1): -1,
        (2, 2): 1,
        (2, -2): 1,
    }
    return PeriodicBandedMatrix(3, 3, rule)


def lv_periodic_matrix(m: int) -> ExchangeMatrix:
    """The 3m x 3m closure of the Lotka-Volterra quiver (indices mod 3m)."""
    if m <= 2:
        raise ValueError("periodic closure needs m > 2")
    n = 3 * m
    rule = lv_matrix().rule
    entries: dict[tuple[int, int], int] = {}
    for i in range(n):
        for (cls, off), v in rule.items():
            if i % 3 == cls:
                j = (i + off) % n
                entries[(i, j)] = entries.get((i, j), 0) + v
    entries = {k: v for k, v in entries.items() if v}
    return ExchangeMatrix(range(n), entries)


def alternating_chain_matrix() -> PeriodicBandedMatrix:
    """Infinite chain b_ij = (-1)^i (delta_{i,j+1} + delta_{i,j-1})."""
    rule = {(0, 1): 1, (0, -1): 1, (1, 1): -1, (1, -1): -1}
    return PeriodicBandedMatrix(2, 1, rule)


def liouville_even_matrix(m: int) -> ExchangeMatrix:
    """Affine A-type cyclic quiver on 2m vertices for the even-site lattice."""
    if m < 2:
        raise ValueError("need m >= 2 (at least 4 vertices)")
    n = 2 * m
    entries: dict[tuple[int, int], int] = {}
    for k in range(m):
        i = 2 * k
        entries[(i, (i - 1) % n)] = -1
        entries[(i, (i + 1) % n)] = entries.get((i, (i + 1) % n), 0) - 1
        j = 2 * k + 1
        entries[(j, (j - 1) % n)] = 1
        entries[(j, (j + 1) % n)] = entries.get((j, (j + 1) % n), 0) + 1
    entries = {k: v for k, v in entries.items() if v}
    return ExchangeMatrix(range(n), entries)


def liouville_odd_matrix(m: int) -> ExchangeMatrix:
    """Doubled cyclic quiver on 2(2m+1) vertices for the odd-site lattice.

    Each lattice site i carries two vertices: (i,+) at 2i and (i,-) at 2i+1,
    with site indices taken mod N = 2m+1.
    """
    if m < 1:
        raise ValueError("need m >= 1 (at least 3 sites)")
    N = 2 * m + 1
    entries: dict[tuple[int, int], int] = {}

    def plus(i: int) -> int:
        return 2 * (i % N)

    def minus(i: int) -> int:
        return 2 * (i % N) + 1

    for k in range(N):
        entries[(plus(k), minus(k - 1))] = entries.get((plus(k), minus(k - 1)), 0) - 1
        entries[(plus(k), minus(k + 1))] = entries.get((plus(k), minus(k + 1)), 0) - 1
        entries[(minus(k), plus(k + 1))] = entries.get((minus(k), plus(k + 1)), 0) + 1
        entries[(minus(k), plus(k - 1))] = entries.get((minus(k), plus(k - 1)), 0) + 1
    entries = {k: v for k, v in entries.items() if v}
    return ExchangeMatrix(range(2 * N), entries)


def named_matrix(name: str, m: int | None = None) -> "ExchangeMatrix | PeriodicBandedMatrix":
    name = name.lower()
    if name == "a2":
        return a2_matrix()
    if name == "somos4":
        return somos4_matrix()
    if name == "lv":
        return lv_matrix()
    if name == "example37":
        return alternating_chain_matrix()
    if name == "liouville-even":
        if m is None:
            raise ValueError("liouville-even needs --m")
        return liouville_even_matrix(m)
    if name == "liouville-odd":
        if m is None:
            raise ValueError("liouville-odd needs --m")
        return liouville_odd_matrix(m)
    raise ValueError(f"unknown named matrix {name!r}")


NAMED_MATRICES = ("a2", "somos4", "lv", "liouville-even", "liouville-odd", "example37")

"""Discrete Lotka-Volterra and Liouville dynamics driven by seed mutation.

The 3-periodic band-3 exchange matrix drives the lattice Lotka-Volterra
system: mutating one residue class per step produces layers (B(u), x(u), y(u))
whose forward values satisfy the T-system, the Y-system, and the same system
for the dressed coefficients y-hat.  With constant coefficients the cluster
variables become tau functions of the bilinear lattice recursion, and the
dressed coefficients become its u-variables.

The bipartite Liouville exchange matrices (even ring directly, odd ring via a
doubled index set) drive the N-periodic discrete Liouville equation in the
coefficient dynamics.  Initial-data Poisson brackets for both systems are
computed by the symbolic oracle from the extended (x, y) structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import RatFunc, SemifieldTag
from .factored import Factored
from .matrices import (
    ExchangeMatrix,
    liouville_even_matrix,
    liouville_odd_matrix,
    lv_matrix,
    somos4_matrix,
)
from .poisson import (
    ExtendedPoisson,
    PoissonMatrix,
    bracket_from_pairs,
    is_log_canonical,
)
from .seeds import Seed, mutate_many, mutate_seed, one_plus


class MarginExhausted(LookupError):
    """A value was requested outside the window's trusted region."""

    def __init__(self, u: int, i: int):
        self.site = (u, i)
        super().__init__(f"value at layer {u}, index {i} is outside the safe margin")


class LatticeZeroDivision(ZeroDivisionError):
    """A lattice update divided by a zero value; carries the site."""

    def __init__(self, site: tuple[int, int]):
        self.site = site
        super().__init__(f"zero denominator at lattice site (n,t) = {site}")


# ---------------------------------------------------------------------------
# Lattice Lotka-Volterra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LVState:
    """Layers (B(u), x(u), y(u)) of the Lotka-Volterra mutation schedule.

    The window covers indices lo..hi; a value at layer u is trusted only when
    its index is at least 3u away from both window edges (each composite
    mutation layer corrupts a band of width 3 at each edge).
    """

    lo: int
    hi: int
    depth: int
    tag: SemifieldTag
    seeds: tuple[Seed, ...]
    delta: Fraction | None = None

    def margin(self, i: int) -> int:
        return min(i - self.lo, self.hi - i)

    def is_safe(self, u: int, i: int) -> bool:
        return 0 <= u <= self.depth and self.margin(i) >= 3 * u

    def frontier(self, u: int) -> tuple[int, int]:
        """Inclusive index range trusted at layer u."""
        return self.lo + 3 * u, self.hi - 3 * u

    def _check(self, u: int, i: int) -> None:
        if not self.is_safe(u, i):
            raise MarginExhausted(u, i)

    def x(self, u: int, i: int) -> Factored:
        self._check(u, i)
        return self.seeds[u].x[i]

    def y(self, u: int, i: int) -> Factored:
        # y_i(u) is written by mutations at every class-(u-1) index within
        # distance 2 of i, so it needs two extra cells of margin beyond the
        # x-trust cone (the initial layer is exact everywhere)
        if u > 0 and self.margin(i) < 3 * u + 2:
            raise MarginExhausted(u, i)
        self._check(u, i)
        return self.seeds[u].y[i]

    def one_plus_y(self, u: int, i: int) -> Factored:
        """The semifield sum 1 (+) y_i(u): the one layer u formed when it
        mutated at i, else computed here."""
        y = self.y(u, i)
        s = self.seeds[u + 1].sums.get(i) if u < self.depth else None
        return one_plus(self.tag, y) if s is None else s

    def y_hat(self, u: int, i: int) -> Factored:
        """Dressed coefficient at a forward point (u = i mod 3)."""
        if (u - i) % 3 != 0:
            raise ValueError(f"({u},{i}) is not a forward mutation point")
        return self.y(u, i) * self.f_value(u, i)

    def f_value(self, u: int, i: int) -> Factored:
        """The cluster-monomial factor of the dressed coefficient."""
        num = self.x(u + 1, i - 2) * self.x(u + 2, i + 2)
        den = self.x(u + 2, i - 1) * self.x(u + 1, i + 1)
        return num / den

    def forward_points(self, max_u: int | None = None):
        """Safe forward points (u, i) with u = i mod 3."""
        top = self.depth if max_u is None else min(max_u, self.depth)
        for u in range(top + 1):
            flo, fhi = self.frontier(u)
            for i in range(flo, fhi + 1):
                if (u - i) % 3 == 0:
                    yield (u, i)


def lv_constant_y(lo: int, hi: int, delta: Fraction) -> dict[int, Factored]:
    """Constant-coefficient initial data: the Y-system solution y_i(u) = delta
    at forward points corresponds to seed coefficients delta, 1, 1/delta on
    residue classes 0, 1, 2."""
    delta = Fraction(delta)
    if delta == 0:
        raise ValueError("delta must be nonzero")
    by_class = {
        0: Factored.constant(delta),
        1: Factored.one(),
        2: Factored.constant(Fraction(1) / delta),
    }
    return {i: by_class[i % 3] for i in range(lo, hi + 1)}


def lv_run(
    depth: int,
    lo: int,
    hi: int,
    tag: SemifieldTag = SemifieldTag.UNIVERSAL,
    delta: Fraction | None = None,
) -> LVState:
    """Run the Lotka-Volterra schedule: layer u mutates residue class u mod 3.

    lo..hi is the materialized index window.  With delta given, the run uses
    constant coefficients in the universal semifield.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    window = lv_matrix().window(lo, hi)
    y_values = None
    if delta is not None:
        if tag is not SemifieldTag.UNIVERSAL:
            raise ValueError("constant coefficients require the universal semifield")
        y_values = lv_constant_y(lo, hi, delta)
    seed = Seed.initial(window, tag, y_values=y_values)
    seeds = [seed]
    for u in range(depth):
        # only indices whose layer-(u+1) value is still inside the trusted
        # cone are mutated; everything closer to the edge is already garbage
        # and mutating it would only waste symbolic work
        ks = [
            i
            for i in range(lo, hi + 1)
            if (i - u) % 3 == 0 and min(i - lo, hi - i) >= 3 * (u + 1)
        ]
        seed = mutate_many(seed, ks)
        seeds.append(seed)
    return LVState(lo=lo, hi=hi, depth=depth, tag=tag, seeds=tuple(seeds), delta=delta)


def x_rel_residual(state: LVState, u: int, i: int) -> Factored:
    """T-system residual at a forward point:
    x_i(u) x_i(u+3) (1 (+) y_i(u)) - y_i(u) x_{i-2}(u+1) x_{i+2}(u+2)
                                   - x_{i-1}(u+2) x_{i+1}(u+1)."""
    if (u - i) % 3 != 0:
        raise ValueError(f"({u},{i}) is not a forward mutation point")
    lhs = state.x(u, i) * state.x(u + 3, i) * state.one_plus_y(u, i)
    rhs = state.y(u, i) * state.x(u + 1, i - 2) * state.x(u + 2, i + 2)
    rhs = rhs + state.x(u + 2, i - 1) * state.x(u + 1, i + 1)
    return lhs - rhs


def y_rel_residual(state: LVState, u: int, i: int) -> Factored:
    """Y-system residual at a forward point, in the seed's own semifield:
    y_i(u) y_i(u+3) (1 (+) y_{i+1}(u+1)^{-1}) (1 (+) y_{i-1}(u+2)^{-1})
      / ((1 (+) y_{i-2}(u+1)) (1 (+) y_{i+2}(u+2))) - 1.

    Written multiplicatively -- 1 (+) y^{-1} as (1 (+) y)/y, which holds in
    every semifield -- so that every factor is one the mutation run already
    produced; the quotient then cancels structurally instead of forcing a
    full expansion.
    """
    if (u - i) % 3 != 0:
        raise ValueError(f"({u},{i}) is not a forward mutation point")
    num = (
        state.y(u, i)
        * state.y(u + 3, i)
        * state.one_plus_y(u + 1, i + 1)
        * state.one_plus_y(u + 2, i - 1)
    )
    den = (
        state.y(u + 1, i + 1)
        * state.y(u + 2, i - 1)
        * state.one_plus_y(u + 1, i - 2)
        * state.one_plus_y(u + 2, i + 2)
    )
    return num / den - Factored.one()


def yhat_rel_residual(state: LVState, u: int, i: int) -> Factored:
    """Y-system residual for the dressed coefficients y-hat."""
    one = Factored.one()
    lhs = (
        state.y_hat(u, i)
        * state.y_hat(u + 3, i)
        * (one + state.y_hat(u + 1, i + 1).inverse())
        * (one + state.y_hat(u + 2, i - 1).inverse())
    )
    rhs = (one + state.y_hat(u + 1, i - 2)) * (one + state.y_hat(u + 2, i + 2))
    return lhs - rhs


def lv_report(state: LVState) -> list[dict]:
    """JSON-ready residual report over all safe forward points."""
    records = []
    for u, i in state.forward_points():
        for name, fn in (
            ("x-rel", x_rel_residual),
            ("y-rel", y_rel_residual),
            ("yhat-rel", yhat_rel_residual),
        ):
            try:
                residual = fn(state, u, i)
            except MarginExhausted:
                continue
            records.append(
                {"relation": name, "site": [u, i], "residual_zero": residual.is_zero()}
            )
    return records


def somos_sequence(n_terms: int) -> list[Fraction]:
    """First n_terms of the Somos-4 sequence from cyclic cluster mutation.

    The exchange matrix is mutation-cyclic: mutating at the oldest index
    realizes s_{n+4} s_n = s_{n+3} s_{n+1} + s_{n+2}^2 with trivial
    coefficients, starting from the constant seed (1, 1, 1, 1).
    """
    if n_terms < 0:
        raise ValueError("n_terms must be nonnegative")
    B = somos4_matrix()
    ones = {i: Factored.one() for i in B.indices}
    seed = Seed(B, ones, ones, SemifieldTag.TRIVIAL)
    out = [Fraction(1)] * min(n_terms, 4)
    for n in range(4, n_terms):
        seed = mutate_seed(seed, n % 4)
        out.append(seed.x[n % 4].constant_value())
    return out


# ---------------------------------------------------------------------------
# Bilinear (tau) lattice
# ---------------------------------------------------------------------------


@dataclass
class TauLattice:
    """Tau values on the (n, t) lattice for a fixed delta.

    Advancement: tau^t_n tau^{t-2}_{n-1} = (d/(1+d)) tau^{t-2}_n tau^t_{n-1}
                                         + (1/(1+d)) tau^{t-1}_{n-1} tau^{t-1}_n,
    the bilinear recursion solved for the newest site.  u-values are the
    cross-ratios u^t_n = tau^{t+1}_n tau^{t-1}_{n+1} / (tau^t_{n+1} tau^t_n).
    """

    delta: Fraction
    tau: dict[tuple[int, int], Factored]

    def u_value(self, n: int, t: int) -> Factored | None:
        """u^t_n, or None if some stencil value is unknown."""
        need = [(n, t + 1), (n + 1, t - 1), (n + 1, t), (n, t)]
        if any(s not in self.tau for s in need):
            return None
        num = self.tau[(n, t + 1)] * self.tau[(n + 1, t - 1)]
        den = self.tau[(n + 1, t)] * self.tau[(n, t)]
        if den.is_zero():
            raise LatticeZeroDivision((n, t))
        return num / den

    def u1_residual(self, n: int, t: int) -> Factored | None:
        """Residual of u^{t+1}_{n+1} (1 + d u^t_{n+1}) - u^t_n (1 + d u^{t+1}_n),
        or None where the stencil is incomplete."""
        vals = {
            "a": self.u_value(n + 1, t + 1),
            "b": self.u_value(n + 1, t),
            "c": self.u_value(n, t),
            "d": self.u_value(n, t + 1),
        }
        if any(v is None for v in vals.values()):
            return None
        d = Factored.constant(self.delta)
        one = Factored.one()
        return vals["a"] * (one + d * vals["b"]) - vals["c"] * (one + d * vals["d"])


def tau_run(delta: Fraction, init: Mapping[tuple[int, int], Factored], steps: int) -> TauLattice:
    """Propagate the bilinear recursion from seeded sites.

    init maps (n, t) to tau values.  Each pass fills every site whose
    stencil (the four earlier sites) is already known; `steps` bounds the
    number of passes, so the computable cone grows by at most one diagonal
    per pass.
    """
    delta = Fraction(delta)
    if 1 + delta == 0:
        raise ValueError("delta = -1 degenerates the recursion")
    lattice = TauLattice(delta=delta, tau=dict(init))
    tau = lattice.tau
    if not tau:
        return lattice
    a = Factored.constant(delta / (1 + delta))
    b = Factored.constant(1 / (1 + delta))
    for _ in range(steps):
        ns = [n for n, _ in tau]
        ts = [t for _, t in tau]
        frontier = []
        for n in range(min(ns), max(ns) + 2):
            for t in range(min(ts), max(ts) + 2):
                if (n, t) in tau:
                    continue
                need = [(n, t - 2), (n - 1, t), (n - 1, t - 1), (n, t - 1), (n - 1, t - 2)]
                if all(s in tau for s in need):
                    frontier.append((n, t))
        if not frontier:
            break
        for n, t in frontier:
            den = tau[(n - 1, t - 2)]
            if den.is_zero():
                raise LatticeZeroDivision((n - 1, t - 2))
            num = a * tau[(n, t - 2)] * tau[(n - 1, t)] + b * tau[(n - 1, t - 1)] * tau[(n, t - 1)]
            tau[(n, t)] = num / den
    return lattice


def tn_from_ui(u: int, i: int) -> tuple[int, int]:
    """Forward point (u, i) -> lattice site (t, n) = ((2u+i)/3, (u-i)/3)."""
    if (u - i) % 3 != 0:
        raise ValueError(f"({u},{i}) is not a forward mutation point")
    return (2 * u + i) // 3, (u - i) // 3


def ui_from_tn(t: int, n: int) -> tuple[int, int]:
    """Lattice site (t, n) -> forward point (u, i) = (t + n, t - 2n)."""
    return t + n, t - 2 * n


@dataclass(frozen=True)
class IdentificationReport:
    sites_compared: int
    u_sites_compared: int
    mismatches: tuple
    ok: bool


def lv_tau_lattice(state: LVState, max_u: int | None = None) -> TauLattice:
    """Tau lattice read off a constant-coefficient run: tau^t_n = x_i(u)."""
    if state.delta is None:
        raise ValueError("tau identification needs a constant-coefficient run")
    tau = {}
    for u, i in state.forward_points(max_u):
        t, n = tn_from_ui(u, i)
        tau[(n, t)] = state.x(u, i)
    return TauLattice(delta=state.delta, tau=tau)


def identify_lv(state: LVState, lattice: TauLattice) -> IdentificationReport:
    """Site-by-site comparison of a constant-coefficient run with a tau run.

    Checks tau^t_n = x_i(u) on shared sites and delta u^t_n = y-hat_i(u) at
    forward points where the u-stencil is complete.
    """
    if state.delta is None:
        raise ValueError("identification needs a constant-coefficient run")
    if lattice.delta != state.delta:
        raise ValueError("delta mismatch between the run and the lattice")
    mismatches = []
    compared = 0
    for u, i in state.forward_points():
        t, n = tn_from_ui(u, i)
        if (n, t) not in lattice.tau:
            continue
        compared += 1
        if lattice.tau[(n, t)] != state.x(u, i):
            mismatches.append(("tau", (n, t)))
    d = Factored.constant(state.delta)
    u_compared = 0
    for u, i in state.forward_points():
        t, n = tn_from_ui(u, i)
        try:
            # the dressed coefficient matches the cross-ratio one t-step ahead:
            # y-hat_i(u) = delta u^{t+1}_n.  The u-field satisfies the same
            # autonomous lattice relation either way; the shift is fixed here
            # so that the comparison is site-by-site exact.
            uv = lattice.u_value(n, t + 1)
        except LatticeZeroDivision:
            uv = None
        if uv is None:
            continue
        try:
            yh = state.y_hat(u, i)
        except MarginExhausted:
            continue
        u_compared += 1
        if d * uv != yh:
            mismatches.append(("u", (n, t)))
    return IdentificationReport(
        sites_compared=compared,
        u_sites_compared=u_compared,
        mismatches=tuple(mismatches),
        ok=not mismatches,
    )


# ---------------------------------------------------------------------------
# Discrete Liouville equation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiouvilleState:
    """Layers of the bipartite mutation schedule carrying the N-periodic
    discrete Liouville equation in its coefficients.

    Even N uses the ring quiver on N vertices directly (chi_{n,t} = y_n(t) at
    n + t even).  Odd N uses a doubled ring: vertex pair (i, +/-) flattens to
    2i / 2i+1, and chi_{i,t} reads the + copy at even t, the - copy at odd t.
    """

    N: int
    steps: int
    seeds: tuple[Seed, ...]

    @property
    def even(self) -> bool:
        return self.N % 2 == 0

    def chi(self, n: int, t: int) -> Factored:
        if not 0 <= t <= self.steps:
            raise MarginExhausted(t, n)
        seed = self.seeds[t]
        if self.even:
            if (n + t) % 2 != 0:
                raise ValueError(f"chi({n},{t}) undefined: n + t must be even for even N")
            idx = n % self.N
        else:
            idx = 2 * (n % self.N) + (t % 2)
        return seed.y[idx]


def liouville_run(N: int, steps: int) -> LiouvilleState:
    """Alternate the two composite bipartite mutations, + first at step 0."""
    if N <= 1:
        raise ValueError("N must be at least 2")
    if N == 2:
        raise ValueError(
            "N = 2 is rejected: the even construction needs at least 4 ring "
            "vertices for a well-formed bipartite quiver"
        )
    if N % 2 == 0:
        B = liouville_even_matrix(N // 2)
    else:
        B = liouville_odd_matrix((N - 1) // 2)
    plus = [i for i in B.indices if i % 2 == 0]
    minus = [i for i in B.indices if i % 2 == 1]
    seed = Seed.initial(B)
    seeds = [seed]
    for u in range(steps):
        seed = mutate_many(seed, plus if u % 2 == 0 else minus)
        seeds.append(seed)
    return LiouvilleState(N=N, steps=steps, seeds=tuple(seeds))


def d_liu_residual(state: LiouvilleState, n: int, t: int) -> Factored:
    """Residual of chi_{n,t+1} chi_{n,t-1} - (1 + chi_{n-1,t})(1 + chi_{n+1,t}).

    For even N the site needs n + t odd (chi lives on the even sublattice).
    """
    if not 1 <= t <= state.steps - 1:
        raise MarginExhausted(t, n)
    one = Factored.one()
    lhs = state.chi(n, t + 1) * state.chi(n, t - 1)
    rhs = (one + state.chi(n - 1, t)) * (one + state.chi(n + 1, t))
    return lhs - rhs


def liouville_report(state: LiouvilleState) -> list[dict]:
    records = []
    for t in range(1, state.steps):
        for n in range(state.N):
            if state.even and (n + t) % 2 == 0:
                continue
            residual = d_liu_residual(state, n, t)
            records.append(
                {"relation": "d-liu", "site": [n, t], "residual_zero": residual.is_zero()}
            )
    return records


# ---------------------------------------------------------------------------
# Initial-data Poisson brackets
# ---------------------------------------------------------------------------


def _bracket_table(
    pairs: Mapping[tuple[int, int], Fraction],
    layer0: Mapping[int, RatFunc],
    layer1: Mapping[int, RatFunc],
) -> dict[tuple[int, int], Fraction]:
    """(a, b) -> r with {layer0[a], layer1[b]} = r layer0[a] layer1[b], having
    verified that brackets within each layer vanish."""
    table: dict[tuple[int, int], Fraction] = {}
    for a, f in layer0.items():
        for b, g in layer1.items():
            coeff = is_log_canonical(f, g, bracket_from_pairs(pairs, f, g))
            if coeff is None:
                raise ValueError("bracket is not log-canonical in the given pair")
            table[(a, b)] = coeff
    for layer in (layer0, layer1):
        keys = sorted(layer)
        for a in range(len(keys)):
            for b in range(a + 1, len(keys)):
                if not bracket_from_pairs(pairs, layer[keys[a]], layer[keys[b]]).is_zero():
                    raise ValueError(f"same-layer bracket nonzero at {keys[a]}, {keys[b]}")
    return table


def lv_initial_brackets(
    c_y: Fraction, lo_block: int, hi_block: int
) -> dict[tuple[int, int], Fraction]:
    """Bracket coefficients of the Lotka-Volterra initial data
    {yh_{3i}(0), yh_{3j+1}(1)} on block indices lo_block..hi_block.

    Returns r with {yh_{3i}(0), yh_{3j+1}(1)} = r yh_{3i}(0) yh_{3j+1}(1) for
    safe block pairs, having verified that same-layer brackets vanish.  The
    result is independent of the x-part of the structure, which is zero here
    (a valid PB = O solution).  The run window is padded so every reported
    block sits inside the safe margin of the depth-3 run.
    """
    pad = 4
    lo, hi = 3 * (lo_block - pad), 3 * (hi_block + pad) + 2
    W = lv_matrix().window(lo, hi)
    Px = PoissonMatrix(W.indices, {}, c=Fraction(0))
    ext = ExtendedPoisson(Px=Px, B=W, c_y=Fraction(c_y))
    state = lv_run(3, lo, hi)

    def layer(u: int) -> dict[int, RatFunc]:
        out = {}
        for b in range(lo_block, hi_block + 1):
            try:
                out[b] = state.y_hat(u, 3 * b + u).expand()
            except MarginExhausted:
                pass  # outside the trusted cone of the depth-3 run
        return out

    return _bracket_table(ext.flat_pairs(), layer(0), layer(1))


def liouville_initial_brackets(N: int, c_y: Fraction) -> dict[tuple[int, int], Fraction]:
    """Bracket coefficients of the Liouville initial data across one step.

    Even N: returns (k, j) -> r with {y_{2k}(0), y_{2j+1}(1)} = r * product.
    Odd N: returns (i, j) -> r with {chi_{i,0}, chi_{j,1}} = r * product.
    Same-layer brackets are verified to vanish.  The values hold only y
    variables, so the x-part of the extended structure (zero here) and its
    x-y pairs never enter.
    """
    state = liouville_run(N, 1)
    B = state.seeds[0].matrix
    Px = PoissonMatrix(B.indices, {}, c=Fraction(0))
    ext = ExtendedPoisson(Px=Px, B=B, c_y=Fraction(c_y))
    if N % 2 == 0:
        layer0 = {k: state.chi(2 * k, 0).expand() for k in range(N // 2)}
        layer1 = {j: state.chi(2 * j + 1, 1).expand() for j in range(N // 2)}
    else:
        layer0 = {i: state.chi(i, 0).expand() for i in range(N)}
        layer1 = {j: state.chi(j, 1).expand() for j in range(N)}
    return _bracket_table(ext.flat_pairs(), layer0, layer1)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def report_to_csv(records: Sequence[dict]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["relation", "site", "residual_zero"])
    for rec in records:
        writer.writerow(
            [rec["relation"], ";".join(str(v) for v in rec["site"]), rec["residual_zero"]]
        )
    return buf.getvalue()

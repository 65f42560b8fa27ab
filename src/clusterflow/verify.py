"""Named verification suites.

Each suite runs a fixed batch of exact identity checks and returns
JSON-ready records {suite, check, ok, witness}.  A randomized check records
its first failure, whose witness carries enough data to reproduce it.  The
suites are pure and deterministic for a fixed rng_seed.
"""

from __future__ import annotations

import inspect
import random
from fractions import Fraction
from itertools import combinations, product
from math import log
from typing import Callable, Iterator

from .algebra import SemifieldTag
from .linalg import is_zero_matrix, mat_mul, rank
from .matrices import ExchangeMatrix, a2_matrix, lv_matrix, lv_periodic_matrix, somos4_matrix
from .poisson import (
    CompatibilityError,
    PeriodicLVParams,
    PoissonMatrix,
    LVPoissonParams,
    SymLVParams,
    check_pb_zero_window,
    compatibility_constant,
    is_log_canonical,
    lv_general_P,
    lv_periodic_P,
    lv_periodic_basis,
    lv_symmetric_P,
    mutate_poisson,
    mutate_poisson_many,
    skew_kernel,
    solve_poisson,
    symbolic_bracket,
)
from .seeds import Seed, mutate_seed
from .tropical import c_walk, check_g_inverse, g_matrix, separation_check
from .dynamics import (
    identify_lv,
    liouville_report,
    liouville_run,
    lv_report,
    lv_run,
    lv_tau_lattice,
    tau_run,
)


def _record(suite: str, check: str, ok: bool, witness=None) -> dict:
    rec = {"suite": suite, "check": check, "ok": bool(ok)}
    if witness is not None:
        rec["witness"] = witness
    return rec


def _first_failure(suite: str, check: str, failures: Iterator[dict]) -> dict:
    """The record of a check whose cases yield failure witnesses: ok when
    there is none, else the first one.  The generator is not resumed, so a
    check's random draws stop at its first failure."""
    witness = next(failures, None)
    return _record(suite, check, witness is None, witness)


def random_skew_matrix(rng: random.Random, n: int) -> ExchangeMatrix:
    """A random n x n skew-symmetric matrix with entries in -2..2."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-2, 2)
            rows[i][j] = v
            rows[j][i] = -v
    return ExchangeMatrix.from_dense(rows)


def bounded_word(
    rng: random.Random, B: ExchangeMatrix, depth: int, entry_cap: int = 6
) -> tuple[int, ...]:
    """A mutation word that keeps exchange-matrix entries below entry_cap
    (arbitrary words on wild quivers make entries, and hence every symbolic
    object, blow up exponentially)."""
    word = []
    b = B
    last = None
    for _ in range(depth):
        cands = [k for k in B.indices if k != last]
        rng.shuffle(cands)
        for k in cands:
            nb = b.mutate(k)
            if max(map(abs, nb.data.values()), default=0) <= entry_cap:
                word.append(k)
                b = nb
                last = k
                break
        else:
            break
    return tuple(word)


# ---------------------------------------------------------------------------
# Seed engine: involutivity and the Laurent property
# ---------------------------------------------------------------------------

# A trial stops mutating once a value could expand to more than about
# exp(9.5) = 13k terms, because comparing and expanding such values is slow;
# every step performed up to then is still checked.
SIZE_BUDGET = 9.5


def _too_large(values) -> bool:
    """Whether the log of an upper bound on the expanded term count of some
    factored value passes SIZE_BUDGET."""
    return any(
        sum(abs(e) * log(len(p.terms)) for p, e in v.powers.items()) > SIZE_BUDGET
        for v in values
    )


def seed_suite(rng_seed: int = 0) -> list[dict]:
    rng = random.Random(rng_seed)

    def involutivity():
        for trial in range(50):
            B = random_skew_matrix(rng, rng.randint(2, 6))
            word = bounded_word(rng, B, rng.randint(1, 8))
            seed = Seed.initial(B, SemifieldTag.UNIVERSAL)
            for k in word:
                if _too_large(v for i in B.indices for v in (seed.x[i], seed.y[i])):
                    break
                step = mutate_seed(seed, k)
                back = mutate_seed(step, k)
                if not (
                    back.matrix == seed.matrix
                    and all(back.x[i] == seed.x[i] for i in B.indices)
                    and all(back.y[i] == seed.y[i] for i in B.indices)
                ):
                    yield {"trial": trial, "matrix": B.to_json(), "k": k}
                seed = step

    def laurent():
        for trial in range(10):
            B = random_skew_matrix(rng, rng.randint(2, 4))
            word = bounded_word(rng, B, 6)
            seed = Seed.initial(B, SemifieldTag.TRIVIAL)
            for k in word:
                if _too_large(seed.x[i] for i in B.indices):
                    break
                seed = mutate_seed(seed, k)
            for i in B.indices:
                if not seed.x[i].expand().den.is_one():
                    yield {"trial": trial, "matrix": B.to_json(), "word": list(word), "index": i}

    return [
        _first_failure("seeds", "involutivity", involutivity()),
        _first_failure("seeds", "laurent", laurent()),
    ]


# ---------------------------------------------------------------------------
# Poisson engine: compatible structures follow the matrix mutation rule
# ---------------------------------------------------------------------------


def poisson_suite(rng_seed: int = 0) -> list[dict]:
    rng = random.Random(rng_seed)

    def failures():
        trials = 0
        while trials < 20:
            B = random_skew_matrix(rng, rng.choice([2, 4, 4, rng.randint(2, 5)]))
            c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            try:
                P = solve_poisson(B, c)
            except ValueError:
                continue  # singular B; re-roll
            trials += 1
            k = rng.choice(B.indices)
            Pm = mutate_poisson(P, B, k)
            try:
                compatible = compatibility_constant(Pm, B.mutate(k)) == c
            except CompatibilityError:  # P'B' is not even diagonal
                compatible = False
            if not compatible:
                yield {"matrix": B.to_json(), "c": str(c), "k": k, "reason": "P'B' != cD"}
            # oracle: brackets of the mutated cluster under the original structure
            seed = mutate_seed(Seed.initial(B, SemifieldTag.TRIVIAL), k)
            xs = {i: seed.x[i].expand() for i in B.indices}
            for i, j in combinations(B.indices, 2):
                r = is_log_canonical(xs[i], xs[j], symbolic_bracket(xs[i], xs[j], P))
                if r is None or r != Pm.entry(i, j):
                    yield {"matrix": B.to_json(), "k": k, "pair": (i, j, None if r is None else str(r))}

    records = [_first_failure("poisson", "mutation-rule-oracle", failures())]

    # adversarial input: PB not diagonal must be rejected with a witness
    B = somos4_matrix()
    bad = PoissonMatrix(B.indices, {(0, 1): Fraction(1)}, c=Fraction(0))
    try:
        mutate_poisson(bad, B, 0)
        rejection = None
    except CompatibilityError as e:
        rejection = {"witness_entry": list(e.witness), "value": str(e.value)}
    records.append(_record("poisson", "adversarial-rejection", rejection is not None, rejection))
    return records


# ---------------------------------------------------------------------------
# Poisson families for the Lotka-Volterra chain
# ---------------------------------------------------------------------------


def families_suite(rng_seed: int = 0) -> list[dict]:
    rng = random.Random(rng_seed)
    lo_block, hi_block = -3, 3
    lo, hi = 3 * lo_block, 3 * hi_block + 2
    blocks = range(lo_block, hi_block + 1)
    distances = range(1, hi_block - lo_block + 1)  # block distances j - i of the q-shifts

    def rfrac() -> Fraction:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    def draw(cls, shifts, qs) -> LVPoissonParams:
        """Random parameters: per-block shifts a_i, b_i for i in shifts and
        q_ij for i < j in qs."""
        return cls(
            a0=rfrac(),
            b0=rfrac(),
            c0=rfrac(),
            a={i: rfrac() for i in shifts},
            b={i: rfrac() for i in shifts},
            q={(i, j): rfrac() for i in qs for j in qs if i < j},
        )

    def general_P() -> PoissonMatrix:
        return lv_general_P(draw(LVPoissonParams, blocks, blocks), lo_block, hi_block)

    def symmetric_P() -> PoissonMatrix:
        params = SymLVParams(a0=rfrac(), q={k: rfrac() for k in distances})
        return lv_symmetric_P(params, lo_block, hi_block)

    W = lv_matrix().window(lo, hi)

    def pb_zero_failures(draw_P):
        for trial in range(5):
            good, where = check_pb_zero_window(draw_P(), W)
            if not good:
                yield {"trial": trial, "entry": list(where)}

    records = [
        _first_failure("families", "general-PB-zero", pb_zero_failures(general_P)),
        _first_failure("families", "symmetric-PB-zero", pb_zero_failures(symmetric_P)),
    ]

    # shift covariance under the composite class mutations: three classes
    # advance the structure one layer; p(u+1)_{ij} = p(u)_{i-1,j-1} at safe
    # entries, and three layers return it to itself
    params = SymLVParams(a0=Fraction(1), q={k: Fraction(1, 2) ** k for k in distances})
    P0 = lv_symmetric_P(params, lo_block, hi_block)
    p, b = P0, W
    layers = [P0]
    for u in range(3):
        ks = [i for i in range(lo, hi + 1) if (i - u) % 3 == 0 and min(i - lo, hi - i) >= 3]
        p, b = mutate_poisson_many(p, b, ks, check=False)
        layers.append(p)

    def safe(i: int, depth: int) -> bool:
        return min(i - lo, hi - i) >= 3 * depth

    window = range(lo, hi + 1)
    shifted = (
        {"u": u, "entry": [i, j]}
        for u, i, j in product((0, 1, 2), window, window)
        if i != j
        and safe(i, u + 1) and safe(j, u + 1) and safe(i - 1, u) and safe(j - 1, u)
        and layers[u + 1].entry(i, j) != layers[u].entry(i - 1, j - 1)
    )
    records.append(_first_failure("families", "shift-covariance", shifted))
    returned = (
        {"entry": [i, j]}
        for i, j in product(window, window)
        if i != j and safe(i, 3) and safe(j, 3) and layers[3].entry(i, j) != layers[0].entry(i, j)
    )
    records.append(_first_failure("families", "period-3", returned))

    # the periodic family, per-block shifts a_i, b_i included, solves PB = O
    # and spans the whole skew kernel of the periodic matrix
    for m in (3, 4):
        P = lv_periodic_P(m, draw(PeriodicLVParams, range(1, m), range(m)))
        Bm = lv_periodic_matrix(m)
        prod_zero = is_zero_matrix(mat_mul(P.to_dense(), Bm.to_dense()))
        records.append(_record("families", f"periodic-PB-zero-m{m}", prod_zero))
        records.append(periodic_span_record(m, lv_periodic_basis(m)))
    return records


def periodic_span_record(m: int, family: list[PeriodicLVParams]) -> dict:
    """Whether the periodic LV family spanned by `family` is the whole skew
    kernel of PB = O for the 3m x 3m periodic matrix.

    ok iff every member solves PB = O and the members' rank equals both the
    kernel dimension and (m+1)(m+2)/2, the parameter count of
    PeriodicLVParams.
    """
    Bm = lv_periodic_matrix(m)
    dim = len(skew_kernel(Bm))
    n = 3 * m
    members = [lv_periodic_P(m, p) for p in family]
    pb_zero = all(is_zero_matrix(mat_mul(P.to_dense(), Bm.to_dense())) for P in members)
    family_rank = rank(
        [[P.entry(i, j) for i in range(n) for j in range(i + 1, n)] for P in members]
    )
    ok = pb_zero and family_rank == dim == (m + 1) * (m + 2) // 2
    witness = {
        "dimension": dim,
        "family_rank": family_rank,
        "parameters": len(family),
        "pb_zero": pb_zero,
    }
    return _record("families", f"periodic-kernel-dim-m{m}", ok, witness)


# ---------------------------------------------------------------------------
# Dynamics suites
# ---------------------------------------------------------------------------


def _residual_record(suite: str, check: str, recs: list[dict]) -> dict:
    bad = [r for r in recs if not r["residual_zero"]]
    witness = {"checked": len(recs), "failures": [r["site"] for r in bad]}
    return _record(suite, check, not bad, witness)


def lv_suite(depth: int = 4, lo: int = -12, hi: int = 14) -> list[dict]:
    return [_residual_record("lv", "residuals", lv_report(lv_run(depth, lo, hi)))]


def tau_suite(depth: int = 4, lo: int = -12, hi: int = 14, delta: Fraction = Fraction(1)) -> list[dict]:
    """Compare a constant-coefficient run with an independent tau lattice: the
    bilinear recursion, seeded with the run's layers u <= 2 and run for
    depth - 2 passes.  `computed` counts the shared sites the recursion
    filled in; a comparison with none of them checks nothing and fails."""
    state = lv_run(depth, lo, hi, delta=Fraction(delta))
    seed = lv_tau_lattice(state, max_u=2).tau
    rep = identify_lv(state, tau_run(state.delta, seed, depth - 2))
    computed = rep.sites_compared - len(seed)
    return [
        _record(
            "tau",
            "identification",
            rep.ok and computed > 0,
            {
                "sites": rep.sites_compared,
                "u_sites": rep.u_sites_compared,
                "computed": computed,
                "mismatches": [list(map(str, mm)) for mm in rep.mismatches],
            },
        )
    ]


def liouville_suite(Ns: tuple[int, ...] = (4, 5, 6)) -> list[dict]:
    return [
        _residual_record("liouville", f"d-liu-N{N}", liouville_report(liouville_run(N, 4)))
        for N in Ns
    ]


# ---------------------------------------------------------------------------
# Tropical machinery
# ---------------------------------------------------------------------------


def tropical_suite(rng_seed: int = 0) -> list[dict]:
    rng = random.Random(rng_seed)

    def walk_failures():
        for trial in range(8):
            B = random_skew_matrix(rng, rng.randint(2, 4))
            word = bounded_word(rng, B, 8)
            try:
                walk = c_walk(B, word)
            except Exception as e:  # branch disagreement is a hard failure
                yield {"trial": trial, "matrix": B.to_json(), "word": list(word), "error": str(e)}
                continue
            if not all(check_g_inverse(c, g_matrix(c)) for _, c in walk):
                yield {"trial": trial, "matrix": B.to_json(), "word": list(word)}

    def separation_failures():
        # the random cases are drawn once the walk check has stopped
        cases = [(a2_matrix(), (0, 1, 0, 1, 0)), (somos4_matrix(), (0, 1, 2))]
        for _ in range(3):
            B = random_skew_matrix(rng, rng.randint(2, 3))
            cases.append((B, bounded_word(rng, B, rng.randint(1, 4), entry_cap=3)))
        for B, word in cases:
            if not separation_check(B, word).ok:
                yield {"matrix": B.to_json(), "word": list(word)}

    return [
        _first_failure("tropical", "c-walk-and-g-inverse", walk_failures()),
        _first_failure("tropical", "separation", separation_failures()),
    ]


SUITES: dict[str, Callable[..., list[dict]]] = {
    "seeds": seed_suite,
    "poisson": poisson_suite,
    "families": families_suite,
    "lv": lv_suite,
    "tau": tau_suite,
    "liouville": liouville_suite,
    "tropical": tropical_suite,
}


def bind_suite(name: str, **params) -> list[tuple[Callable[..., list[dict]], dict]]:
    """The calls run_suite makes: the suite, or every suite for 'all', with
    the parameters its signature names.  KeyError on an unknown suite,
    TypeError on a parameter that no suite takes."""
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)} or 'all'")
    calls = [(fn, {k: v for k, v in params.items() if k in inspect.signature(fn).parameters})
             for fn in (SUITES.values() if name == "all" else [SUITES[name]])]
    if unused := set(params).difference(*(kw for _, kw in calls)):
        raise TypeError(f"no suite takes {', '.join(sorted(unused))}")
    return calls


def run_suite(name: str, **params) -> list[dict]:
    return [r for fn, kw in bind_suite(name, **params) for r in fn(**kw)]

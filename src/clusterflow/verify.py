"""Named verification suites.

Each suite runs a batch of exact identity checks and returns JSON-ready
records {suite, check, ok, witness}; a record's witness carries enough data
to reproduce a failure.  The suites are pure and deterministic for a fixed
rng_seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from .algebra import SemifieldTag
from .linalg import is_zero_matrix, mat_mul, rank
from .matrices import ExchangeMatrix, a2_matrix, lv_periodic_matrix, somos4_matrix
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


def random_skew_matrix(
    rng: random.Random, n: int, max_entry: int = 2
) -> ExchangeMatrix:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-max_entry, max_entry)
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
            if max(abs(int(e)) for row in nb.to_dense() for e in row) <= entry_cap:
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


def _size_log(v) -> float:
    """log of an upper bound on the expanded term count of a factored value."""
    from math import log

    return sum(abs(e) * log(len(p.terms)) for p, e in v.powers.items())


def seed_suite(
    rng_seed: int = 0,
    n_matrices: int = 50,
    max_rank: int = 6,
    max_depth: int = 8,
    laurent_rank: int = 4,
    laurent_depth: int = 6,
) -> list[dict]:
    rng = random.Random(rng_seed)
    records = []
    inv_ok = True
    witness = None
    for trial in range(n_matrices):
        n = rng.randint(2, max_rank)
        B = random_skew_matrix(rng, n)
        word = bounded_word(rng, B, rng.randint(1, max_depth))
        seed = Seed.initial(B, SemifieldTag.UNIVERSAL)
        # truncate a trial once the symbolic values get too large to compare
        # quickly; involutivity is still exercised at every performed step
        budget = 9.5  # ~ exp(9.5) = 13k expanded terms
        for k in word:
            if any(
                _size_log(seed.x[i]) > budget or _size_log(seed.y[i]) > budget
                for i in B.indices
            ):
                break
            back = mutate_seed(mutate_seed(seed, k), k)
            same = (
                back.matrix == seed.matrix
                and all(back.x[i] == seed.x[i] for i in B.indices)
                and all(back.y[i] == seed.y[i] for i in B.indices)
            )
            if not same:
                inv_ok = False
                witness = {"trial": trial, "matrix": B.to_json(), "k": k}
                break
            seed = mutate_seed(seed, k)
        if not inv_ok:
            break
    records.append(_record("seeds", "involutivity", inv_ok, witness))

    laurent_ok = True
    witness = None
    for trial in range(10):
        n = rng.randint(2, laurent_rank)
        B = random_skew_matrix(rng, n)
        word = bounded_word(rng, B, laurent_depth)
        seed = Seed.initial(B, SemifieldTag.TRIVIAL)
        for k in word:
            if any(_size_log(seed.x[i]) > 9.5 for i in B.indices):
                break
            seed = mutate_seed(seed, k)
        for i in B.indices:
            val = seed.x[i].expand()
            if not val.den.is_one():
                laurent_ok = False
                witness = {"trial": trial, "matrix": B.to_json(), "word": list(word), "index": i}
                break
        if not laurent_ok:
            break
    records.append(_record("seeds", "laurent", laurent_ok, witness))
    return records


# ---------------------------------------------------------------------------
# Poisson engine: compatible structures follow the matrix mutation rule
# ---------------------------------------------------------------------------


def poisson_suite(rng_seed: int = 0, n_trials: int = 20, max_rank: int = 5) -> list[dict]:
    rng = random.Random(rng_seed)
    records = []
    ok = True
    witness = None
    trials = 0
    while trials < n_trials:
        n = rng.choice([2, 4, 4, rng.randint(2, max_rank)])
        B = random_skew_matrix(rng, n)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        try:
            P = solve_poisson(B, c)
        except ValueError:
            continue  # singular B; re-roll
        trials += 1
        k = rng.choice(B.indices)
        Pm = mutate_poisson(P, B, k)
        Bm = B.mutate(k)
        if compatibility_constant(Pm, Bm) != c:
            ok = False
            witness = {"matrix": B.to_json(), "c": str(c), "k": k, "reason": "P'B' != cD"}
            break
        # oracle: brackets of the mutated cluster under the original structure
        seed = mutate_seed(Seed.initial(B, SemifieldTag.TRIVIAL), k)
        xs = {i: seed.x[i].expand() for i in B.indices}
        mismatch = None
        for a, i in enumerate(B.indices):
            for j in B.indices[a + 1 :]:
                val = symbolic_bracket(xs[i], xs[j], P)
                r = is_log_canonical(xs[i], xs[j], val)
                if r is None or r != Pm.entry(i, j):
                    mismatch = (i, j, None if r is None else str(r))
                    break
            if mismatch:
                break
        if mismatch:
            ok = False
            witness = {"matrix": B.to_json(), "k": k, "pair": mismatch}
            break
    records.append(_record("poisson", "mutation-rule-oracle", ok, witness))

    # adversarial input: PB not diagonal must be rejected with a witness
    B = somos4_matrix()
    bad = PoissonMatrix(B.indices, {(0, 1): Fraction(1)}, c=Fraction(0))
    try:
        mutate_poisson(bad, B, 0)
        records.append(_record("poisson", "adversarial-rejection", False))
    except CompatibilityError as e:
        records.append(
            _record(
                "poisson",
                "adversarial-rejection",
                True,
                {"witness_entry": list(e.witness), "value": str(e.value)},
            )
        )
    return records


# ---------------------------------------------------------------------------
# Poisson families for the Lotka-Volterra chain
# ---------------------------------------------------------------------------


def families_suite(rng_seed: int = 0, lo_block: int = -3, hi_block: int = 3) -> list[dict]:
    rng = random.Random(rng_seed)
    records = []
    lo, hi = 3 * lo_block, 3 * hi_block + 2

    def rfrac() -> Fraction:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    from .matrices import lv_matrix

    W = lv_matrix().window(lo, hi)
    ok = True
    witness = None
    blocks = range(lo_block, hi_block + 1)
    for trial in range(5):
        params = LVPoissonParams(
            a0=rfrac(),
            b0=rfrac(),
            c0=rfrac(),
            a={i: rfrac() for i in blocks},
            b={i: rfrac() for i in blocks},
            q={(i, j): rfrac() for i in blocks for j in blocks if i < j},
        )
        P = lv_general_P(params, lo_block, hi_block)
        good, where = check_pb_zero_window(P, W)
        if not good:
            ok = False
            witness = {"trial": trial, "entry": list(where)}
            break
    records.append(_record("families", "general-PB-zero", ok, witness))

    ok = True
    witness = None
    for trial in range(5):
        params = SymLVParams(
            a0=rfrac(),
            q={k: rfrac() for k in range(1, hi_block - lo_block + 1)},
        )
        P = lv_symmetric_P(params, lo_block, hi_block)
        good, where = check_pb_zero_window(P, W)
        if not good:
            ok = False
            witness = {"trial": trial, "entry": list(where)}
            break
    records.append(_record("families", "symmetric-PB-zero", ok, witness))

    # shift covariance under the composite class mutations: three classes
    # advance the structure one layer; p(u+1)_{ij} = p(u)_{i-1,j-1} at safe
    # entries, and three layers return it to itself
    params = SymLVParams(
        a0=Fraction(1),
        q={k: Fraction(1, 2) ** k for k in range(1, hi_block - lo_block + 1)},
    )
    P0 = lv_symmetric_P(params, lo_block, hi_block)
    p, b = P0, W
    layers = [P0]
    for u in range(3):
        ks = [i for i in range(lo, hi + 1) if (i - u) % 3 == 0 and min(i - lo, hi - i) >= 3]
        p, b = mutate_poisson_many(p, b, ks, check=False)
        layers.append(p)

    def safe(i: int, depth: int) -> bool:
        return min(i - lo, hi - i) >= 3 * depth

    shift_ok = True
    witness = None
    for u in (0, 1, 2):
        for i in range(lo, hi + 1):
            for j in range(lo, hi + 1):
                if i == j or not (safe(i, u + 1) and safe(j, u + 1)):
                    continue
                if not (safe(i - 1, u) and safe(j - 1, u)):
                    continue
                if layers[u + 1].entry(i, j) != layers[u].entry(i - 1, j - 1):
                    shift_ok = False
                    witness = {"u": u, "entry": [i, j]}
                    break
            if not shift_ok:
                break
        if not shift_ok:
            break
    records.append(_record("families", "shift-covariance", shift_ok, witness))

    period_ok = True
    witness = None
    for i in range(lo, hi + 1):
        for j in range(lo, hi + 1):
            if i == j or not (safe(i, 3) and safe(j, 3)):
                continue
            if layers[3].entry(i, j) != layers[0].entry(i, j):
                period_ok = False
                witness = {"entry": [i, j]}
                break
        if not period_ok:
            break
    records.append(_record("families", "period-3", period_ok, witness))

    # the periodic family, per-block shifts a_i, b_i included, solves PB = O
    # and spans the whole skew kernel of the periodic matrix
    for m in (3, 4):
        params = PeriodicLVParams(
            a0=rfrac(),
            b0=rfrac(),
            c0=rfrac(),
            a={i: rfrac() for i in range(1, m)},
            b={i: rfrac() for i in range(1, m)},
            q={(i, j): rfrac() for i in range(m) for j in range(m) if i < j},
        )
        P = lv_periodic_P(m, params)
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


def lv_suite(depth: int = 4, lo: int = -12, hi: int = 14) -> list[dict]:
    state = lv_run(depth, lo, hi)
    recs = lv_report(state)
    bad = [r for r in recs if not r["residual_zero"]]
    return [
        _record(
            "lv",
            "residuals",
            not bad,
            {"checked": len(recs), "failures": [r["site"] for r in bad]},
        )
    ]


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


def liouville_suite(Ns: tuple[int, ...] = (4, 5, 6), steps: int = 4) -> list[dict]:
    records = []
    for N in Ns:
        state = liouville_run(N, steps)
        recs = liouville_report(state)
        bad = [r for r in recs if not r["residual_zero"]]
        records.append(
            _record(
                "liouville",
                f"d-liu-N{N}",
                not bad,
                {"checked": len(recs), "failures": [r["site"] for r in bad]},
            )
        )
    return records


# ---------------------------------------------------------------------------
# Tropical machinery
# ---------------------------------------------------------------------------


def tropical_suite(rng_seed: int = 0, max_rank: int = 4, max_depth: int = 8) -> list[dict]:
    rng = random.Random(rng_seed)
    records = []
    walk_ok = True
    witness = None
    for trial in range(8):
        n = rng.randint(2, max_rank)
        B = random_skew_matrix(rng, n)
        word = bounded_word(rng, B, max_depth)
        try:
            walk = c_walk(B, word)
        except Exception as e:  # branch disagreement is a hard failure
            walk_ok = False
            witness = {"trial": trial, "matrix": B.to_json(), "word": list(word), "error": str(e)}
            break
        for _, c in walk:
            if not check_g_inverse(c, g_matrix(c)):
                walk_ok = False
                witness = {"trial": trial, "matrix": B.to_json(), "word": list(word)}
                break
        if not walk_ok:
            break
    records.append(_record("tropical", "c-walk-and-g-inverse", walk_ok, witness))

    sep_ok = True
    witness = None
    cases = [(a2_matrix(), (0, 1, 0, 1, 0)), (somos4_matrix(), (0, 1, 2))]
    for trial in range(3):
        n = rng.randint(2, 3)
        B = random_skew_matrix(rng, n)
        cases.append((B, bounded_word(rng, B, rng.randint(1, 4), entry_cap=3)))
    for B, word in cases:
        rep = separation_check(B, word)
        if not rep.ok:
            sep_ok = False
            witness = {"matrix": B.to_json(), "word": list(word)}
            break
    records.append(_record("tropical", "separation", sep_ok, witness))
    return records


SUITES: dict[str, Callable[..., list[dict]]] = {
    "seeds": seed_suite,
    "poisson": poisson_suite,
    "families": families_suite,
    "lv": lv_suite,
    "tau": tau_suite,
    "liouville": liouville_suite,
    "tropical": tropical_suite,
}


def run_suite(name: str, **params) -> list[dict]:
    if name == "all":
        out = []
        for fn in SUITES.values():
            out.extend(fn())
        return out
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)} or 'all'")
    return SUITES[name](**params)

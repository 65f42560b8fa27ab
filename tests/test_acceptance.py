"""Acceptance gate: the eight primary criteria, one pass/fail line each.

Every check is exact rational or symbolic equality; no tolerances anywhere.
Each test prints a single summary line (run pytest with -s to stream them)
and then asserts, so a red criterion is visible both ways.  Elapsed times
are informational.
"""

import time
from fractions import Fraction

import pytest

from clusterflow import linalg
from clusterflow.dynamics import (
    liouville_initial_brackets,
    liouville_report,
    liouville_run,
    lv_initial_brackets,
    lv_run,
    somos_sequence,
)
from clusterflow.matrices import (
    liouville_even_matrix,
    lv_matrix,
    lv_periodic_matrix,
    somos4_matrix,
)
from clusterflow.poisson import (
    ExtendedPoisson,
    LVPoissonParams,
    PoissonMatrix,
    assemble_extended,
    bracket_from_pairs,
    lv_general_P,
    pb_product,
    skew_kernel,
    solve_poisson,
    two_form,
)
from clusterflow.verify import (
    families_suite,
    lv_suite,
    poisson_suite,
    seed_suite,
    tau_suite,
    tropical_suite,
)


def _report(n: int, label: str, ok: bool, started: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" — {detail}" if detail else ""
    print(f"criterion {n} ({label}): {status} [{time.time() - started:.1f}s]{extra}")


def test_criterion_1_involutivity_and_laurent():
    t0 = time.time()
    records = seed_suite(rng_seed=0)
    ok = all(r["ok"] for r in records)
    _report(1, "involutivity + Laurent", ok, t0)
    assert ok, [r for r in records if not r["ok"]]


def test_criterion_2_somos():
    t0 = time.time()
    terms = somos_sequence(10)
    seq_ok = terms[4:] == [Fraction(v) for v in (2, 3, 7, 23, 59, 314)]

    B = somos4_matrix()
    P = PoissonMatrix(
        B.indices,
        {(i, j): Fraction(j - i) for i in range(4) for j in range(4) if i < j},
        c=Fraction(0),
    )
    pb_ok = linalg.is_zero_matrix(pb_product(P, B))
    dim_ok = len(skew_kernel(B)) == 1

    ok = seq_ok and pb_ok and dim_ok
    _report(2, "Somos-4 sequence + displayed P + kernel dim 1", ok, t0)
    assert seq_ok, terms
    assert pb_ok
    assert dim_ok


def test_criterion_3_poisson_mutation_oracle():
    t0 = time.time()
    records = poisson_suite(rng_seed=0)
    ok = all(r["ok"] for r in records)
    _report(3, "Poisson mutation rule vs bracket oracle + adversarial", ok, t0)
    assert ok, [r for r in records if not r["ok"]]


def test_criterion_4_lv_identities():
    # window -8..8 in 3-site blocks: materialized indices -24..26
    t0 = time.time()
    residual_records = lv_suite(depth=6, lo=-24, hi=26)
    res_ok = all(r["ok"] for r in residual_records)
    checked = sum(r["witness"]["checked"] for r in residual_records)
    tau_records = tau_suite(depth=6, lo=-24, hi=26, delta=Fraction(1))
    tau_ok = all(r["ok"] for r in tau_records)
    sites = tau_records[0]["witness"]["sites"] + tau_records[0]["witness"]["u_sites"]

    ok = res_ok and tau_ok and checked > 0 and sites > 0
    _report(
        4,
        "LV T/Y/yhat residuals + tau identification",
        ok,
        t0,
        f"{checked} residual sites, {sites} tau/u sites",
    )
    assert res_ok, residual_records
    assert tau_ok, tau_records
    assert checked > 0 and sites > 0


def test_criterion_5_lv_poisson_families():
    t0 = time.time()
    records = families_suite(rng_seed=0)
    family_ok = all(r["ok"] for r in records)
    dims = {
        3: next(r["witness"]["dimension"] for r in records if r["check"] == "periodic-kernel-dim-m3"),
        4: next(r["witness"]["dimension"] for r in records if r["check"] == "periodic-kernel-dim-m4"),
    }
    # (m+1)(m+2)/2 = 3 + 2(m-1) + m(m-1)/2: a0, b0, c0, the per-block shifts
    # a_i, b_i (i = 1..m-1) and q_ij (i < j) of the periodic family
    want = {m: (m + 1) * (m + 2) // 2 for m in (3, 4)}
    dims_ok = dims == want
    ok = family_ok and dims_ok
    _report(
        5,
        "LV Poisson families + periodic kernel dims (m+1)(m+2)/2 = (10, 15)",
        ok,
        t0,
        f"computed kernel dims m=3: {dims[3]}, m=4: {dims[4]}",
    )
    assert family_ok, [r for r in records if not r["ok"]]
    # the periodic family with its per-block shifts spans the skew kernel
    # (the periodic-kernel-dim records check rank = dimension); without the
    # shifts a_i, b_i it has only 3 + m(m-1)/2 parameters (6 and 9) and spans
    # a proper subspace
    assert dims_ok, f"kernel dims {dims} != {want}"


def test_criterion_6_bracket_tables():
    t0 = time.time()
    cy = Fraction(3)

    # f-variable brackets vanish for any PB = O structure on a 5-block window
    lo_b, hi_b, pad = -2, 2, 4
    lo, hi = 3 * (lo_b - pad), 3 * (hi_b + pad) + 2
    W = lv_matrix().window(lo, hi)
    blocks = range(lo_b - pad, hi_b + pad + 1)
    Px = lv_general_P(
        LVPoissonParams(
            a0=Fraction(1),
            b0=Fraction(1, 2),
            c0=Fraction(-1),
            a={i: Fraction(i, 3) for i in blocks},
            b={i: Fraction(-i, 2) for i in blocks},
            q={(i, j): Fraction(i + j, 5) for i in blocks for j in blocks if i < j},
        ),
        lo_b - pad,
        hi_b + pad,
    )
    ext = ExtendedPoisson(Px=Px, B=W, c_y=cy)
    pairs = ext.flat_pairs()
    state = lv_run(3, lo, hi)
    fs = {b: state.f_value(0, 3 * b).expand() for b in range(lo_b, hi_b + 1)}
    xs = {j: state.x(0, j).expand() for j in range(3 * lo_b, 3 * hi_b + 3)}
    fx_ok = all(
        bracket_from_pairs(pairs, f, xs[j]).is_zero()
        for f in fs.values()
        for j in xs
    )
    keys = sorted(fs)
    ff_ok = all(
        bracket_from_pairs(pairs, fs[a], fs[b]).is_zero()
        for ai, a in enumerate(keys)
        for b in keys[ai + 1 :]
    )

    # dressed initial data: coefficient c_y(-delta_{j,i} + delta_{j,i-1})
    table = lv_initial_brackets(cy, lo_b, hi_b)
    lv_ok = bool(table) and all(
        r == (-cy if j == i else cy if j == i - 1 else Fraction(0))
        for (i, j), r in table.items()
    )

    # Liouville initial data, even and odd rings
    liu_ok = True
    for N in (4, 6):
        m = N // 2
        t = liouville_initial_brackets(N, cy)
        liu_ok = liu_ok and bool(t) and all(
            r == -cy * ((j == k) + (j == (k - 1) % m)) for (k, j), r in t.items()
        )
    t5 = liouville_initial_brackets(5, cy)
    liu_ok = liu_ok and all(
        r == -cy * ((j == (i + 1) % 5) + (j == (i - 1) % 5)) for (i, j), r in t5.items()
    )

    ok = fx_ok and ff_ok and lv_ok and liu_ok
    _report(6, "f-variable + initial-data bracket tables", ok, t0)
    assert fx_ok and ff_ok
    assert lv_ok, table
    assert liu_ok


def test_criterion_7_liouville_dynamics():
    t0 = time.time()
    dyn_ok = True
    for N in (4, 5, 6):
        recs = liouville_report(liouville_run(N, 4))
        dyn_ok = dyn_ok and bool(recs) and all(r["residual_zero"] for r in recs)

    B = liouville_even_matrix(3)
    cx, cy = Fraction(2), Fraction(3)
    P = solve_poisson(B, cx)
    inv_ok = linalg.mat_eq(
        P.to_dense(), linalg.mat_scale(linalg.inverse(B.to_dense()), cx)
    )
    pb_ok = linalg.mat_eq(
        pb_product(P, B), linalg.mat_scale(linalg.identity(B.n), cx)
    )
    ext = assemble_extended(B, cx, cy, Px=P)
    tf = two_form(B, cx, cy, P=P)
    pw_ok = linalg.mat_eq(
        linalg.mat_mul(ext.big_dense(), tf.extended),
        linalg.mat_scale(linalg.identity(2 * B.n), cx + cy),
    )

    B2 = liouville_even_matrix(2)
    with pytest.raises(ValueError):
        solve_poisson(B2, Fraction(1))
    kernel = skew_kernel(B2)
    singular_ok = bool(kernel) and all(c == 0 for _, c in kernel)

    ok = dyn_ok and inv_ok and pb_ok and pw_ok and singular_ok
    _report(7, "Liouville dynamics + inverse structure + singular branch", ok, t0)
    assert dyn_ok
    assert inv_ok and pb_ok and pw_ok
    assert singular_ok


def test_criterion_8_tropical_machinery():
    t0 = time.time()
    records = tropical_suite(rng_seed=0)
    ok = all(r["ok"] for r in records)
    _report(8, "C/G/F machinery + separation reconstruction", ok, t0)
    assert ok, [r for r in records if not r["ok"]]

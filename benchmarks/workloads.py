"""The two benchmark workloads and their known answers.

A workload is `prepare(seed)`, which builds its inputs, and `run(clock,
inputs)`, which makes the timed calls into clusterflow through `clock`.
`judge(results)` then checks every verdict and structural count against
answers written out by hand.  Judging runs after the last timed call, so it
never counts in the timings.

In `lv-deep` the seed translates the constant-coefficient window by 3*seed.
The schedule is 3-periodic, so the checked tau and u indices change while
every verdict count and base size stays the same.  The universal depth-6 run
is not translated: `Factored.__add__` visits its bases in set order, which
follows the variable labels, so relabelling changes its work.  A pass's
multiply term products differed by 14% between two seeds, and with the
window translated lv-deep's `wall_s` spread 0.19-0.25 of its median over
ten seeds, against 0.05 with the window fixed.  The workload keeps the
window of seed 0.

In `rational` the seed drives the randomized `poisson` and `families`
suites; the rest of the workload is fixed, for two measured reasons:

- the tropical run is not translated.  Its cost is dominated by `poly_gcd`,
  which picks its main variable with `min()` over a set, so ties go by set
  iteration order and relabelling the variables changes the work:
  `lv_run(5, -15+3s, 17+3s)` takes 13 s at s = 0, 23 s at s = -1, 10.7 s
  at s = 2 and more than 60 s at s = 1.  With ties broken in sorted order
  every one of those takes 10-11 s.  The workload keeps the window of s = 0;
- the `seeds` suite runs at rng seed 0: at rng seed 3 it runs for about
  90 s instead of about 1.2 s, because its size budget is tested only
  between mutation steps.  Likewise `tropical_suite` is left out: at rng
  seed 1 it runs for more than 100 s, against 1.4 s at rng seed 0.
"""

from __future__ import annotations

import json
import os
import time
from fractions import Fraction

# Timed calls go through the module attributes, so that the spans the
# traced run installs on them see the calls.
from clusterflow import cli, dynamics, tropical
from clusterflow.algebra import SemifieldTag
from clusterflow.matrices import ExchangeMatrix, a2_matrix, somos4_matrix
from clusterflow.tropical import check_g_inverse

BUILD, CHECK = "build", "check"
# a verdict is one check the program makes; a gate is a count this file knows
VERDICT, GATE = "verdict", "gate"

MAX_LAYER = 6
# Largest factored base, in terms, at layers 1..depth.
DEEP_BASES = (2, 4, 15, 94, 1409, 54961)
CONSTANT5_BASES = (2, 4, 13, 69, 486)

# Records each `verify` suite returns.
SUITE_RECORDS = {"seeds": 2, "poisson": 2, "families": 8, "liouville": 3}
SEEDS_SUITE_RNG = 0

# The witness: its C-walk costs about 0.2 s after five steps and 10-13 s
# after six, because every tropical step also computes gcd-reduced cluster
# variables that c_walk never reads.  separation_check on five steps of
# the word already runs for more than 100 s, so it takes the first four.
WITNESS = ((0, -2, 1), (2, 0, 1), (-1, -1, 0))
WITNESS_WORD = (0, 2, 1, 0, 2, 0)
WITNESS_SEPARATION_STEPS = 4


class Clock:
    """Times the calls of one pass; wall and CPU run from the first call's
    start to the last call's end."""

    def __init__(self):
        self.calls: list[tuple[str, str, float, float]] = []
        self.cpu0 = self.cpu1 = 0.0

    def __call__(self, phase: str, name: str, fn, *args, **kwargs):
        if not self.calls:
            self.cpu0 = time.process_time()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.cpu1 = time.process_time()
        self.calls.append((phase, name, t0, t1))
        return result

    def summary(self) -> dict[str, float]:
        return {
            "wall_s": self.calls[-1][3] - self.calls[0][2],
            "cpu_s": self.cpu1 - self.cpu0,
            "build_s": sum(t1 - t0 for ph, _, t0, t1 in self.calls if ph == BUILD),
            "check_s": sum(t1 - t0 for ph, _, t0, t1 in self.calls if ph == CHECK),
        }


def base_sizes(state) -> list[tuple[int, int]]:
    """(largest, total) base size in terms at layers 1..depth of a factored
    LV run, over the distinct bases of every x and y value of the layer."""
    out = []
    for seed in state.seeds[1:]:
        bases = {}
        for v in (*seed.x.values(), *seed.y.values()):
            for p in getattr(v, "powers", ()):
                bases[p] = len(p.terms)
        out.append((max(bases.values(), default=0), sum(bases.values())))
    return out


def _expect(verdicts: list, kind: str, name: str, ok: bool, detail=None) -> None:
    verdicts.append((kind, name, 1, 0 if ok else 1, None if ok else detail))


def _residuals(verdicts, records, counts: dict[str, int]) -> None:
    for r in records:
        _expect(verdicts, VERDICT, f"lv_report {r['relation']} {tuple(r['site'])}", r["residual_zero"])
    got = {rel: sum(r["relation"] == rel for r in records) for rel in counts}
    _expect(verdicts, GATE, "lv_report record counts", got == counts, got)


def _bases(verdicts, state, expected, label) -> None:
    got = tuple(m for m, _ in base_sizes(state))
    _expect(verdicts, GATE, f"{label} largest base per layer", got == expected, got)


# ---------------------------------------------------------------------------
# lv-deep: criterion 4's regime at one ninth of its cost, then the
# constant-coefficient tau identification, whose trial divisions all succeed
# ---------------------------------------------------------------------------


def deep_prepare(seed: int, out_dir: str) -> dict:
    off = 3 * seed
    return {"window": (-18, 20), "tau_window": (-45 + off, 47 + off),
            "delta": Fraction(1)}


def deep_run(clock: Clock, inputs: dict) -> dict:
    lo, hi = inputs["window"]
    universal = clock(BUILD, "lv_run", dynamics.lv_run, 6, lo, hi)
    records = clock(CHECK, "lv_report", dynamics.lv_report, universal)
    lo, hi = inputs["tau_window"]
    constant = clock(BUILD, "lv_run.constant", dynamics.lv_run, 5, lo, hi, delta=inputs["delta"])
    lattice = clock(CHECK, "lv_tau_lattice", dynamics.lv_tau_lattice, constant)
    ident = clock(CHECK, "identify_lv", dynamics.identify_lv, constant, lattice)
    return {"states": [universal, constant], "records": records, "ident": ident}


def deep_judge(results: dict) -> list:
    v: list = []
    _residuals(v, results["records"], {"x-rel": 16, "y-rel": 11, "yhat-rel": 2})
    ident = results["ident"]
    sites = (ident.sites_compared, ident.u_sites_compared)
    v.append((VERDICT, "identify_lv tau and u sites", sum(sites), len(ident.mismatches),
              [list(map(str, m)) for m in ident.mismatches] or None))
    _expect(v, VERDICT, "identify_lv ok", ident.ok)
    _expect(v, GATE, "identify_lv site counts", sites == (156, 92), sites)
    universal, constant = results["states"]
    _bases(v, universal, DEEP_BASES, "universal depth 6")
    _bases(v, constant, CONSTANT5_BASES, "constant depth 5")
    return v


# ---------------------------------------------------------------------------
# rational: gcd-reduced values only; reaches linalg, poisson, tropical, cli
# ---------------------------------------------------------------------------


def rational_prepare(seed: int, out_dir: str) -> dict:
    verify = []
    for suite in ("seeds", "poisson", "families", "liouville"):
        argv = ["verify", suite, "--out", os.path.join(out_dir, f"verify-{suite}.json")]
        if suite != "liouville":
            rng = SEEDS_SUITE_RNG if suite == "seeds" else seed
            argv += ["--rng-seed", str(rng)]
        verify.append((suite, argv))
    witness = ExchangeMatrix.from_dense([list(row) for row in WITNESS])
    return {
        "window": (-15, 17),
        "verify": verify,
        "walks": [
            ("a2", a2_matrix(), (0, 1, 0, 1, 0), 5),
            ("somos4", somos4_matrix(), (0, 1, 2), 3),
            ("witness", witness, WITNESS_WORD, WITNESS_SEPARATION_STEPS),
        ],
    }


def rational_run(clock: Clock, inputs: dict) -> dict:
    lo, hi = inputs["window"]
    state = clock(BUILD, "lv_run.tropical", dynamics.lv_run, 5, lo, hi, tag=SemifieldTag.TROPICAL)
    records = clock(CHECK, "lv_report", dynamics.lv_report, state)
    codes = {}
    for suite, argv in inputs["verify"]:
        codes[suite] = clock(CHECK, f"cli verify {suite}", cli.main, argv)
    walks = {}
    for name, matrix, word, sep_steps in inputs["walks"]:
        walk = clock(CHECK, f"c_walk {name}", tropical.c_walk, matrix, word)
        gs = [clock(CHECK, f"g_matrix {name}", tropical.g_matrix, c) for _, c in walk]
        sep = clock(CHECK, f"separation {name}", tropical.separation_check, matrix, word[:sep_steps])
        walks[name] = (walk, gs, sep)
    return {"records": records, "codes": codes, "walks": walks, "inputs": inputs}


def rational_judge(results: dict) -> list:
    v: list = []
    _residuals(v, results["records"], {"x-rel": 9, "y-rel": 5})
    for suite, argv in results["inputs"]["verify"]:
        _expect(v, VERDICT, f"verify {suite} exit code", results["codes"][suite] == 0)
        with open(argv[argv.index("--out") + 1]) as fh:
            recs = json.load(fh)
        for r in recs:
            _expect(v, VERDICT, f"verify {suite} {r['check']}", r["ok"], r.get("witness"))
        _expect(v, GATE, f"verify {suite} record count", len(recs) == SUITE_RECORDS[suite], len(recs))
    for name, matrix, word, _ in results["inputs"]["walks"]:
        walk, gs, sep = results["walks"][name]
        _expect(v, GATE, f"c_walk {name} length", len(walk) == len(word) + 1, len(walk))
        for step, ((_, c), g) in enumerate(zip(walk, gs)):
            _expect(v, VERDICT, f"g inverse {name} step {step}", check_g_inverse(c, g))
        _expect(v, VERDICT, f"separation {name}", sep.ok)
    return v


# Untraced passes a run makes even when the last one would end past
# --seconds.  A rational pass takes 23-33 s, so whether a second one fitted
# into 60 s went by chance; two passes every run steady its median.
MIN_PASSES = {"lv-deep": 1, "rational": 2}

WORKLOADS = {
    "lv-deep": (deep_prepare, deep_run, deep_judge),
    "rational": (rational_prepare, rational_run, rational_judge),
}

"""Per-layer metrics computed from the spans of one traced pass.

Span names are those given in `spans.py`: `<module>.<function>` for public
functions, plus `algebra.mul`, `algebra.ratfunc`, `factored.add`,
`factored.cofactor`, `dynamics.one_plus_y` and `matrices.mutate`.
A layer's `s` is inclusive time over its outermost spans (a recursive call
is not counted twice); `self_s` subtracts the time of child spans.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import RAISED, Tracer
from workloads import MAX_LAYER

SUITES = {"seed_suite": "seeds", "poisson_suite": "poisson",
          "families_suite": "families", "liouville_suite": "liouville"}
RESIDUALS = {"x": "dynamics.x_rel_residual", "y": "dynamics.y_rel_residual",
             "yhat": "dynamics.yhat_rel_residual"}


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples above it (the
    eleventh largest value).  Below 21 samples that percentile would not
    exceed the median, so the largest value stands in."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[-11] if len(ordered) >= 21 else ordered[-1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tr: Tracer, wall: float) -> dict[str, float]:
    dur, self_s = tr.durations()
    names = [tr.names[n] for n in tr.name]
    parent, work, nested = tr.parent, tr.work, tr.nested
    spans: dict[str, list[int]] = defaultdict(list)
    children: dict[int, list[int]] = defaultdict(list)
    for i, name in enumerate(names):
        spans[name].append(i)
        if parent[i] >= 0:
            children[parent[i]].append(i)

    def calls(name):
        return len(spans.get(name, ()))

    def inclusive(name):
        return sum(dur[i] for i in spans.get(name, ()) if not nested[i])

    def own(name):
        return sum(self_s[i] for i in spans.get(name, ()))

    def child_of(name, parent_name):
        return [i for i in spans.get(name, ()) if parent[i] >= 0 and names[parent[i]] == parent_name]

    m: dict[str, float] = {}

    divs = spans.get("algebra.try_exact_div", [])
    ok = [i for i in divs if work[i] == 1]
    failed = [i for i in divs if work[i] == 0]
    m["factored.trial_div.tried"] = len(divs)
    m["factored.trial_div.succeeded"] = len(ok)
    m["factored.trial_div.failed"] = len(failed)
    m["factored.trial_div.failed_s"] = sum(dur[i] for i in failed)
    m["factored.trial_div.useful_ratio"] = len(ok) / len(divs) if divs else 0.0
    m["algebra.exact_div.calls"] = calls("algebra.exact_div_laurent")
    m["algebra.exact_div.self_s"] = own("algebra.exact_div_laurent")

    m["algebra.mul.calls"] = calls("algebra.mul")
    m["algebra.mul.self_s"] = own("algebra.mul")
    m["algebra.mul.term_products"] = sum(work[i] for i in spans.get("algebra.mul", ()))
    m["factored.add.calls"] = calls("factored.add")
    m["factored.add.self_s"] = own("factored.add")
    m["factored.add.cofactor_terms"] = sum(work[i] for i in child_of("factored.cofactor", "factored.add"))

    m["dynamics.one_plus_y.calls"] = calls("dynamics.one_plus_y")
    m["dynamics.one_plus_y.s"] = inclusive("dynamics.one_plus_y")
    site_s: dict[tuple, float] = defaultdict(float)
    checked = skipped = 0
    for short, name in RESIDUALS.items():
        done = [i for i in spans.get(name, ()) if work[i] != RAISED]
        checked += len(done)
        skipped += calls(name) - len(done)
        m[f"dynamics.residual.{short}.count"] = len(done)
        m[f"dynamics.residual.{short}.s"] = sum(dur[i] for i in spans.get(name, ()))
        for i in done:
            site_s[(parent[i], tr.sites[i])] += dur[i]
    m["dynamics.site.p50_ms"] = 1e3 * median(list(site_s.values()))
    m["dynamics.site.tail_ms"] = 1e3 * tail(list(site_s.values()))
    m["dynamics.sites.checked"] = checked
    m["dynamics.sites.skipped"] = skipped

    m["algebra.poly_gcd.calls"] = calls("algebra.poly_gcd")
    m["algebra.poly_gcd.s"] = inclusive("algebra.poly_gcd")
    m["algebra.ratfunc.ops"] = calls("algebra.ratfunc")
    m["algebra.ratfunc.s"] = inclusive("algebra.ratfunc")

    m["tropical.c_walk.s"] = inclusive("tropical.c_walk")
    steps = child_of("seeds.mutate_seed", "tropical.c_walk")
    m["tropical.c_walk.step_max_s"] = max((dur[i] for i in steps), default=0.0)
    m["tropical.separation.s"] = inclusive("tropical.separation_check")

    m["seeds.mutate.calls"] = calls("seeds.mutate_seed")
    m["seeds.mutate.self_s"] = own("seeds.mutate_seed")
    layer_s = [0.0] * MAX_LAYER
    for run in spans.get("dynamics.lv_run", ()):
        layers = [c for c in children[run] if names[c] == "seeds.mutate_many"]
        for u, c in enumerate(layers[:MAX_LAYER]):
            layer_s[u] += dur[c]
    for u, s in enumerate(layer_s, 1):
        m[f"seeds.mutate_many.L{u}.s"] = s
    m["matrices.mutate.calls"] = calls("matrices.mutate")
    m["matrices.mutate.s"] = inclusive("matrices.mutate")

    for fn, suite in SUITES.items():
        m[f"verify.{suite}.s"] = inclusive(f"verify.{fn}")
    m["cli.self_s"] = sum(own(n) for n in spans if n.startswith("cli."))
    m["poisson.bracket.calls"] = calls("poisson.symbolic_bracket")
    m["poisson.bracket.s"] = inclusive("poisson.symbolic_bracket")
    m["poisson.skew_kernel.calls"] = calls("poisson.skew_kernel")
    m["poisson.skew_kernel.s"] = inclusive("poisson.skew_kernel")
    for fn in ("nullspace", "inverse"):
        m[f"linalg.{fn}.calls"] = calls(f"linalg.{fn}")
        m[f"linalg.{fn}.s"] = inclusive(f"linalg.{fn}")

    top = sum(dur[i] for i in range(len(dur)) if parent[i] < 0)
    m["trace.coverage"] = top / wall if wall > 0 else 0.0
    return m


def self_time_table(tr: Tracer) -> list[tuple[str, int, float, float]]:
    """(span name, calls, inclusive s over outermost spans, self s), by self time."""
    dur, self_s = tr.durations()
    rows: dict[str, list] = {}
    for i, nid in enumerate(tr.name):
        row = rows.setdefault(tr.names[nid], [0, 0.0, 0.0])
        row[0] += 1
        if not tr.nested[i]:
            row[1] += dur[i]
        row[2] += self_s[i]
    return sorted(((n, *r) for n, r in rows.items()), key=lambda r: -r[3])

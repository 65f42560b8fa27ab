"""One benchmark process: a fresh interpreter that runs one workload.

    python3 benchmarks/worker.py --workload NAME --seed N --setup-only
    python3 benchmarks/worker.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --out RESULT.json

`--setup-only` imports clusterflow, builds the inputs and exits; `run.py`
times it from outside as the set-up cost.  Otherwise the worker repeats the
workload, one closed-loop pass after another, as long as another pass as
long as the last one still ends within `--seconds`, judges every pass, and
writes a JSON result.  An untraced run makes at least the workload's
`MIN_PASSES`, a traced run at least one traced pass.

With `--trace 1` the first pass runs untraced and the passes after it run
with spans on; the kernel micro-benchmarks follow.  The result carries the
per-layer metrics of every traced pass and the untraced pass's wall time, from
which `run.py` takes medians and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs src on the path)

OUT_DIR = os.path.join(ROOT, ".bench_out")


def base_metrics(states) -> dict[str, float]:
    """factored.base_terms.{max,total}.L<u> over the workload's factored runs."""
    depth = workloads.MAX_LAYER
    largest = [0] * depth
    total = [0] * depth
    for state in states:
        for u, (mx, tot) in enumerate(workloads.base_sizes(state)[:depth]):
            largest[u] = max(largest[u], mx)
            total[u] += tot
    m = {}
    for u in range(depth):
        m[f"factored.base_terms.max.L{u + 1}"] = largest[u]
        m[f"factored.base_terms.total.L{u + 1}"] = total[u]
    return m


def one_pass(run, judge, inputs, observe=None):
    """Run, time and judge one pass.  `observe(summary)` runs after the
    timed calls and before judging, so a tracer sees only the workload's
    own calls."""
    clock = workloads.Clock()
    results = run(clock, inputs)
    summary = clock.summary()
    if observe is not None:
        observe(summary)
    verdicts = judge(results)
    bases = base_metrics(results.get("states", ()))
    del results
    gc.collect()
    return summary, verdicts, bases


def measure(run, judge, inputs, seconds: float, traced: bool, min_passes: int) -> dict:
    passes, verdicts, layer_passes = [], [], []
    t_stop = time.perf_counter() + seconds
    tracer = observe = None
    untraced_wall = spans_path = self_time = None
    if traced:
        import layers
        from spans import Tracer

        summary, v, _ = one_pass(run, judge, inputs)
        untraced_wall = summary["wall_s"]
        verdicts += v
        tracer = Tracer()

        def observe(summary):
            nonlocal spans_path, self_time
            layer_passes.append(layers.layer_metrics(tracer, summary["wall_s"]))
            if spans_path is None:
                spans_path = os.path.join(OUT_DIR, f"spans-{inputs['name']}-seed{inputs['seed']}.tsv")
                tracer.write(spans_path)
                self_time = layers.self_time_table(tracer)

        tracer.install()
    try:
        while True:
            t0 = time.perf_counter()
            summary, v, bases = one_pass(run, judge, inputs, observe)
            passes.append(summary)
            verdicts += v
            if tracer is not None:
                layer_passes[-1].update(bases)
                tracer.clear()
            now = time.perf_counter()
            if len(passes) >= min_passes and now + (now - t0) > t_stop:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    out = {"passes": passes, "verdicts": verdicts}
    if traced:
        import kernels

        km, kv = kernels.run(kernels.capture())
        out["verdicts"] += kv
        out.update(layer_passes=layer_passes, kernels=km, untraced_wall_s=untraced_wall,
                   spans_file=os.path.relpath(spans_path, ROOT), self_time=self_time[:25])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    prepare, run, judge = workloads.WORKLOADS[args.workload]
    work_dir = os.path.join(OUT_DIR, f"work-{args.workload}-seed{args.seed}")
    os.makedirs(work_dir, exist_ok=True)
    inputs = prepare(args.seed, work_dir)
    if args.setup_only:
        return 0
    inputs.update(name=args.workload, seed=args.seed)
    min_passes = 1 if args.trace else workloads.MIN_PASSES[args.workload]
    out = measure(run, judge, inputs, args.seconds, bool(args.trace), min_passes)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w") as fh:
        json.dump(out, fh, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())

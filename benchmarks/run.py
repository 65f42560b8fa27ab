"""clusterflow benchmark: time to an exact verdict, end to end and per layer.

    python3 benchmarks/run.py --workload lv-deep|rational \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh interpreter
(`worker.py`); set-up time is the median of several separate interpreter
starts that import clusterflow and build the inputs.  With `--trace 0` the
result's metrics are the end-to-end metrics of BENCHMARK.json, with
`--trace 1` its per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 when every verdict
and known count is right, 1 when one is wrong, and 2 when the benchmark
cannot run (for example, no clusterflow sources in the checkout).

Every run also writes `.bench_out/result-<workload>-seed<N>-trace<T>.json`
with the environment, each pass's timings and the verdicts that failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SOURCES = os.path.join(ROOT, "src", "clusterflow")
WORKER = os.path.join(HERE, "worker.py")

SETUP_STARTS = 9
# a run must end within 180 s; the worker gets what is left of this budget
RUN_BUDGET_S = 175.0


def fail(message: str, code: int = 2) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return code


def source_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(SOURCES)):
        if name.endswith(".py"):
            with open(os.path.join(SOURCES, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "CLUSTERFLOW_MAX_TERMS": os.environ.get("CLUSTERFLOW_MAX_TERMS", "200000 (default)"),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def worker_cmd(args, *extra) -> list[str]:
    return [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed), *extra]


def setup_seconds(args) -> list[float]:
    """Wall time of separate interpreter starts that stop once the inputs
    are built."""
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run(worker_cmd(args, "--setup-only"), cwd=ROOT, capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr.strip()}")
    return times


def end_to_end(res: dict, setup: list[float]) -> tuple[dict, dict]:
    """Medians over the run's passes, and the sample count behind each.
    No tail percentile is reported: the highest percentile with ten samples
    beyond it lies above the median only from 21 samples on, and a run has
    one or two passes."""
    passes = res["passes"]
    verdicts = sum(a for kind, _, a, _, _ in res["verdicts"] if kind == "verdict") / len(passes)
    per = {k: [p[k] for p in passes] for k in ("wall_s", "cpu_s", "build_s", "check_s")}
    m = {k: statistics.median(v) for k, v in per.items()}
    m["setup_s"] = statistics.median(setup)
    m["checks_per_s"] = verdicts / m["wall_s"]
    m["peak_rss_mb"] = res["peak_rss_mb"]
    samples = {k: {"n": len(v), "values": v} for k, v in per.items()}
    samples["setup_s"] = {"n": len(setup), "values": setup}
    samples["checks_per_s"] = {"n": len(passes), "checks": verdicts}
    return m, samples


def per_layer(res: dict) -> dict:
    """Medians over the traced passes, the tracing overhead against the
    untraced pass, and the kernel timings."""
    passes = res["layer_passes"]
    m = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    traced = statistics.median(p["wall_s"] for p in res["passes"])
    m["trace.overhead_s"] = traced - res["untraced_wall_s"]
    m["trace.overhead_share"] = m["trace.overhead_s"] / res["untraced_wall_s"]
    m.update(res["kernels"])
    return m


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCES, "__init__.py")):
        return fail(f"no clusterflow sources at {os.path.relpath(SOURCES, ROOT)}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    started = time.perf_counter()
    env = environment()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = os.path.join(OUT_DIR, f"raw-{tag}.json")
    try:
        setup = setup_seconds(args)
        left = RUN_BUDGET_S - (time.perf_counter() - started)
        proc = subprocess.run(
            worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", raw_path),
            cwd=ROOT, capture_output=True, text=True, timeout=left,
        )
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        return fail(str(e), 1)
    if proc.returncode != 0:
        return fail(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}", 1)
    with open(raw_path) as fh:
        res = json.load(fh)
    env["loadavg_end"] = list(os.getloadavg())

    attempted = sum(a for _, _, a, _, _ in res["verdicts"])
    failed = sum(f for _, _, _, f, _ in res["verdicts"])
    failures = [(name, detail) for _, name, _, f, detail in res["verdicts"] if f]
    if args.trace:
        metrics, samples = per_layer(res), {}
    else:
        metrics, samples = end_to_end(res, setup)
    missing = [name for name in units if name not in metrics]
    if missing:
        return fail(f"metrics not produced: {', '.join(missing)}")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "passes": res["passes"], "samples": samples, "metrics": metrics,
        "fail_share": failed / attempted, "failures": failures,
    }
    for key in ("untraced_wall_s", "spans_file", "self_time"):
        if key in res:
            report[key] = res[key]
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    print(f"# clusterflow benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    print("# env " + json.dumps(env, default=str))
    print(f"# passes={len(res['passes'])} attempted={attempted} failed={failed} "
          f"fail_share={failed / attempted:.6f}")
    for name, detail in failures[:20]:
        print(f"# FAILED {name}: {detail}")
    for name, unit in units.items():
        s = samples.get(name, {})
        extra = f"  (n={s['n']})" if "n" in s else ""
        print(f"{name:40s} {metrics[name]:>16.6g} {unit}{extra}")
    for name in sorted(metrics.keys() - units.keys()):
        print(f"# also {name} = {metrics[name]:.6g}")
    for name, calls, incl, own in res.get("self_time", [])[:12]:
        print(f"# self {name:34s} calls={calls:<9d} incl={incl:10.4f}s self={own:10.4f}s")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

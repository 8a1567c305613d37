"""End-to-end and per-layer benchmark of the LUBT system.

    python3 lubtbench/run.py --workload cts-leaf --seed 1 --seconds 30 --trace 0
    python3 lubtbench/run.py --workload big-net --seed 1 --seconds 30 --repeat 5

Run from the root of a checkout: ``repro`` is imported from ``src/``
there.  A run measures set-up (the median of several fresh-process
set-ups), builds its seeded inputs, runs the workload's timed phase and
then checks every op's result.  With ``--trace 0`` it reports the
end-to-end metrics of an untraced phase.  With ``--trace 1`` it splits
the time between an untraced and a traced phase and reports per-layer
metrics from the traced one, plus the tracing overhead; the traced
phase is also written as Chrome trace-event JSON under
``.lubtbench/traces/``.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; any failed op makes
``correct`` false and the exit code 1.

``--repeat N`` runs the command N times with seeds ``seed .. seed+N-1``
and prints, per metric, the median, quartiles, min, max and the
quartile spread as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".lubtbench"
SETUP_SAMPLES = 5

E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "op/s", "op_p50_ms": "ms", "op_p99_ms": "ms",
    "cpu_ms_per_op": "ms", "peak_rss_mb": "MB",
}


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def end_to_end(setup: list[float], phase) -> dict[str, float]:
    """End-to-end metrics of an untraced phase.

    Rates and CPU per op are medians over the phase's slices, and
    ``op_p99_ms`` the median of the p99 of each latency group, so a
    passing disturbance on the shared machine moves them little.  With
    fewer than 100 ops in a group its p99 is its slowest op.
    """
    med = statistics.median
    return {
        "setup_s": med(setup),
        "ops_per_s": med(s.ops / s.wall_s for s in phase.slices),
        "op_p50_ms": 1e3 * med(v for group in phase.latencies_s for v in group),
        "op_p99_ms": 1e3 * med(p99(group) for group in phase.latencies_s),
        "cpu_ms_per_op": 1e3 * med(s.cpu_s / s.ops for s in phase.slices if s.ops),
        "peak_rss_mb": phase.rss_mb,
    }


def per_layer(workload, base, traced, tracer, seed: int) -> tuple[dict[str, float], str | None]:
    """Per-layer metrics of the traced phase; the second value names a
    broken trace invariant, if any."""
    from layers import LAYERS, layer_metrics
    from tracer import attribute, chrome_trace, load_spans

    spans = load_spans(tracer.out_dir, own=tracer)
    t0, t1 = traced.t0_ns, traced.t1_ns
    share, parent = attribute(spans, t0, t1)
    out = layer_metrics(spans, share, parent, t0, t1)
    out.update(traced.extra)
    wall = traced.wall_s
    if workload.jobs:
        busy = out["perf.worker_busy_s"]
        out["perf.pool_utilization"] = busy / (workload.jobs * wall)
        out["perf.dispatch_overhead_s"] = workload.jobs * wall - busy
    selfs = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.wall_s"] = wall
    out["trace.other_s"] = wall - selfs
    out["trace.ops"] = traced.completed
    out["trace.overhead_ratio"] = (
        (wall / traced.completed) / (base.wall_s / base.completed) - 1.0
    )
    broken = None
    if not -1e-6 <= out["trace.other_s"] <= wall * (1 + 1e-9):
        broken = f"layer self times {selfs:.6f}s exceed the traced wall {wall:.6f}s"
    window = [s for s in spans if s.end > t0 and s.start < t1]
    OUT.joinpath("traces").mkdir(parents=True, exist_ok=True)
    chrome = OUT / "traces" / f"{workload.name}-seed{seed}.json"
    chrome_trace(window, t0, chrome)
    print(f"chrome trace: {chrome} ({len(window)} spans)", file=sys.stderr)
    return out, broken


def run_once(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from common import Context
    from layers import UNITS
    from tracer import Tracer
    from workloads import WORKLOADS

    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"error: repro imported from {repro.__file__}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work))
    os.environ["TMPDIR"] = str(work)
    ctx = Context(args.seed, work, BENCH, env)
    try:
        setup = [workload.setup_sample(ctx) for _ in range(SETUP_SAMPLES)]
        inputs = workload.prepare(ctx)
        if not args.trace:
            phases = [workload.phase(ctx, inputs, args.seconds, None)]
        else:
            base = workload.phase(ctx, inputs, args.seconds / 2, None)
            tracer = Tracer(ctx.fresh_path("spans"))
            traced = workload.phase(ctx, inputs, args.seconds / 2, tracer)
            phases = [base, traced]
        failures: dict = {}
        for p, phase in enumerate(phases):
            for op in phase.failures:
                failures[(p, op)] = phase.failures[op]
            for op, problem in workload.check(ctx, inputs, phase).items():
                failures.setdefault((p, op), problem)
        broken = None
        if args.trace:
            values, broken = per_layer(workload, base, traced, tracer, args.seed)
            units = UNITS
        else:
            values, units = end_to_end(setup, phases[0]), E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    for (p, op), problem in list(failures.items())[:5]:
        print(f"FAILED op {op} (phase {p}): {problem}", file=sys.stderr)
    if broken:
        print(f"FAILED trace check: {broken}", file=sys.stderr)
    print(f"{workload.name}: {attempted} ops, {len(failures)} failed "
          f"(fail_ratio {len(failures) / attempted:.4f}); setup samples "
          f"{', '.join(f'{s:.3f}' for s in setup)} s", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}", file=sys.stderr)
    correct = not failures and not broken
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


def repeat(args) -> int:
    """Run the workload ``args.repeat`` times and summarize each metric."""
    runs = []
    for i in range(args.repeat):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed + i),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"run with seed {args.seed + i} failed", file=sys.stderr)
            return 1
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    summary = {}
    print(f"{args.workload}: {len(runs)} runs, seeds {args.seed}..{args.seed + len(runs) - 1}")
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'min':>12s} {'max':>12s} {'spread':>8s}")
    for name, first in runs[0]["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "min": min(vals),
                         "max": max(vals), "spread": spread, "unit": first["unit"]}
        print(f"{name:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(vals):12.6g} "
              f"{max(vals):12.6g} {spread:8.2%}")
    print(json.dumps({"workload": args.workload, "runs": len(runs), "metrics": summary}))
    return 0


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(BENCH))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("cts-leaf", "big-net", "server-mixed"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0, metavar="N",
                   help="run N times with consecutive seeds and summarize")
    args = p.parse_args(argv)
    return repeat(args) if args.repeat else run_once(args)


if __name__ == "__main__":
    sys.exit(main())

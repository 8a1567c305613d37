"""CTS throughput bench: resident scheduler vs inline serial.

The chip-scale claim behind the batch scheduler: at thousands of clock
nets the per-net LP is milliseconds, so multi-net throughput is decided
by dispatch overhead.  This bench runs one synthetic placement through
two schedules and records nets/second for each:

* ``inline``   — serial loop in one process (the correctness reference
  and the honest baseline);
* ``scheduler``— ``run_cts`` on a resident :class:`WorkerPool` with
  EWMA-chunked dispatch.

Writes ``BENCH_cts.json`` at the repo root (same idiom as
``BENCH_scaling.json``) and asserts the gate: the scheduler reaches at
least ``MIN_EFFICIENCY`` of a perfect split over the cores it can use,
i.e. scheduler nets/s >= 0.6 x min(jobs, cores) x inline nets/s.
Per-net canonical costs must be identical across both schedules.

Runs both under pytest (quick sizes; sidecar JSON only) and as a
script::

    python benchmarks/bench_cts.py --nets 1000 --jobs 4   # refresh baseline
    python benchmarks/bench_cts.py --check                # CI gate, no write
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from conftest import full_run, save_output  # noqa: E402

from repro.data import synth_placement  # noqa: E402
from repro.ebf.sweep import canonical_cost  # noqa: E402
from repro.perf import WorkerPool, cts_tasks, run_cts  # noqa: E402

BASELINE_PATH = Path(__file__).parent.parent / "BENCH_cts.json"

#: The gate: scheduler throughput as a fraction of a perfect split of
#: the inline run over ``min(jobs, cores)`` processes.
MIN_EFFICIENCY = 0.6

#: Leaf clock nets: a local buffer drives a handful of flops, so the
#: per-net LP is milliseconds and dispatch overhead dominates — the
#: regime the scheduler exists for.
QUICK = {"nets": 256, "sinks_per_net": 5, "jobs": 2}
FULL = {"nets": 1000, "sinks_per_net": 6, "jobs": 4}


def run_bench(nets: int, sinks_per_net: int, jobs: int, seed: int = 0) -> dict:
    placement = synth_placement(
        nets=nets, sinks_per_net=sinks_per_net, seed=seed
    )
    pairs = cts_tasks(placement)

    t0 = time.perf_counter()
    inline = run_cts(placement, tasks=pairs)
    inline_s = time.perf_counter() - t0
    assert inline.ok, inline.summary()

    with WorkerPool(jobs) as pool:
        t0 = time.perf_counter()
        sched = run_cts(placement, tasks=pairs, jobs=jobs, pool=pool)
        sched_s = time.perf_counter() - t0
    assert sched.ok, sched.summary()

    for a, c in zip(inline.results, sched.results):
        assert canonical_cost(a.cost) == canonical_cost(c.cost), a.name

    cores = os.cpu_count() or 1
    # Dispatch overhead the scheduler adds on top of a perfect
    # jobs-way split of the serial work, amortized per net.
    overhead_ms = max(0.0, sched_s - inline_s / jobs) / len(pairs) * 1e3
    return {
        "protocol": (
            f"synth placement {nets} nets x {sinks_per_net} sinks "
            f"(seed {seed}), window [0.8, 1.2] x radius, jobs={jobs}"
        ),
        "nets": len(pairs),
        "sinks_per_net": sinks_per_net,
        "jobs": jobs,
        "cores": cores,
        "inline_seconds": inline_s,
        "scheduler_seconds": sched_s,
        "inline_nets_per_second": len(pairs) / inline_s,
        "scheduler_nets_per_second": len(pairs) / sched_s,
        "speedup_vs_inline": inline_s / sched_s,
        "required_speedup_vs_inline": MIN_EFFICIENCY * min(jobs, cores),
        "scheduler_overhead_ms_per_net": overhead_ms,
        "p50_net_seconds": sched.p50_seconds,
        "p99_net_seconds": sched.p99_seconds,
        "scheduler_stats": {
            k: v for k, v in sched.scheduler.items() if k != "jobs"
        },
    }


def gate_ok(data: dict) -> bool:
    return data["speedup_vs_inline"] >= data["required_speedup_vs_inline"]


def render(data: dict) -> str:
    from repro.analysis import Table

    t = Table(
        ["schedule", "seconds", "nets/s", "vs inline"],
        title=f"CTS throughput: {data['protocol']}",
    )
    for key, label in (
        ("inline", "inline serial"),
        ("scheduler", "resident scheduler"),
    ):
        s = data[f"{key}_seconds"]
        t.add_row(
            label,
            f"{s:.2f}",
            f"{data[f'{key}_nets_per_second']:,.1f}",
            f"{data['inline_seconds'] / s:.2f}x",
        )
    return t.render() + (
        f"\nper-net latency p50 {1e3 * data['p50_net_seconds']:.2f}ms / "
        f"p99 {1e3 * data['p99_net_seconds']:.2f}ms; scheduler overhead "
        f"{data['scheduler_overhead_ms_per_net']:.3f}ms/net vs perfect "
        f"{data['jobs']}-way split; gate >= "
        f"{data['required_speedup_vs_inline']:.2f}x inline "
        f"({MIN_EFFICIENCY} x min(jobs={data['jobs']}, "
        f"cores={data['cores']}))"
    )


def test_cts_throughput():
    params = FULL if full_run() else QUICK
    data = run_bench(**params)
    save_output("cts.txt", render(data), data=data)
    if full_run():
        BASELINE_PATH.write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n"
        )
    assert gate_ok(data), data


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nets", type=int, default=FULL["nets"])
    ap.add_argument("--sinks", type=int, default=FULL["sinks_per_net"])
    ap.add_argument("--jobs", type=int, default=FULL["jobs"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--check",
        action="store_true",
        help="CI gate: run at quick sizes, assert the scheduler reaches "
        f"{MIN_EFFICIENCY} x min(jobs, cores) x inline throughput, do "
        "not rewrite the committed baseline",
    )
    args = ap.parse_args(argv)
    if args.check:
        data = run_bench(**QUICK)
    else:
        data = run_bench(args.nets, args.sinks, args.jobs, args.seed)
    print(render(data))
    if not args.check:
        BASELINE_PATH.write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {BASELINE_PATH}")
    speedup = data["speedup_vs_inline"]
    required = data["required_speedup_vs_inline"]
    if not gate_ok(data):
        print(
            f"FAIL: scheduler {speedup:.2f}x inline < required "
            f"{required:.2f}x",
            file=sys.stderr,
        )
        return 1
    print(f"throughput gate OK: {speedup:.2f}x inline >= {required:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Which ``repro`` functions the traced run wraps, and the per-layer
metrics derived from their spans.

Layers are the ``repro`` packages on the measured paths.  ``resilience``
(off by default), ``analysis``, ``baselines`` and ``experiments`` are not
on them and stay unmeasured.  A layer a workload does not reach reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import Span, Target

LAYERS = ("data", "topology", "check", "ebf", "lp", "embedding", "perf", "server")


def _solve_stats(args, kwargs, sol):
    s = sol.stats
    return {"rounds": s.rounds, "steiner_rows": s.steiner_rows,
            "total_pairs": s.total_pairs, "warm_rows": s.warm_rows}


def _pairs(args, kwargs, result):
    m = (args[0] if args else kwargs["topo"]).num_sinks
    return {"pairs": m * (m - 1) // 2}


def _iterations(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _busy(args, kwargs, outcome):
    return {"busy_s": float(outcome.elapsed)}


def _t(module, attr, name, wait=False, counter=None):
    return Target(module, attr, name, name.split(".")[0], wait, counter)


# ``wait`` marks calls that block on another process (pool workers, the
# server): their time goes to the work they wait for whenever that work
# is traced.
TARGETS = (
    _t("repro.data.placement", "parse_placement_map", "data.parse"),
    _t("repro.data.placement", "extract_clock_nets", "data.extract"),
    _t("repro.data.instance_json", "instance_to_dict", "data.instance_json"),
    _t("repro.data.instance_json", "instance_from_dict", "data.instance_json"),
    _t("repro.topology.htree", "build_net_topology", "topology.build"),
    _t("repro.topology.htree", "htree_topology", "topology.build"),
    _t("repro.topology.builders", "nearest_neighbor_topology", "topology.build"),
    _t("repro.topology.builders", "balanced_bipartition_topology", "topology.build"),
    _t("repro.topology.serialize", "topology_hash", "topology.hash"),
    _t("repro.topology.serialize", "topology_to_dict", "topology.serialize"),
    _t("repro.topology.serialize", "topology_from_dict", "topology.serialize"),
    _t("repro.check", "check_instance", "check.precheck"),
    _t("repro.ebf.solver", "solve_lubt", "ebf.solve", counter=_solve_stats),
    _t("repro.ebf.constraints", "seed_constraint_pairs", "ebf.lp_build"),
    _t("repro.ebf.formulation", "build_ebf_lp", "ebf.lp_build"),
    _t("repro.ebf.formulation", "add_steiner_rows", "ebf.row_add"),
    _t("repro.ebf.constraints", "steiner_violations", "ebf.scan", counter=_pairs),
    _t("repro.lp.solve", "solve_lp", "lp.solve", counter=_iterations),
    _t("repro.embedding.pipeline", "embed_tree", "embedding.embed"),
    _t("repro.perf.cts", "run_cts", "perf.run_cts"),
    _t("repro.perf.cts", "cts_tasks", "perf.cts_tasks"),
    _t("repro.perf.batch", "solve_many", "perf.solve_many", wait=True),
    _t("repro.perf.scheduler", "BatchScheduler.run", "perf.schedule", wait=True),
    _t("repro.perf.pool", "WorkerPool.submit_chunk", "perf.chunk", wait=True),
    _t("repro.perf.pool", "WorkerPool.submit", "perf.submit", wait=True, counter=_busy),
    _t("repro.perf.journal", "SolveJournal.append", "perf.journal_append"),
    _t("repro.server.keys", "instance_key", "server.key"),
    _t("repro.server.cache", "LruCache.get", "server.cache"),
    _t("repro.server.cache", "LruCache.put", "server.cache"),
    _t("repro.server.warm", "WarmStore.pairs", "server.warm"),
    _t("repro.server.warm", "WarmStore.absorb", "server.warm"),
    _t("repro.server.protocol", "encode_line", "server.protocol"),
    _t("repro.server.protocol", "decode_line", "server.protocol"),
    _t("repro.server.client", "ServerClient.request", "server.request", wait=True),
    _t("repro.server.client", "ServerClient.sweep", "server.request", wait=True),
)

#: Per-layer metrics: name -> unit, in the order they are reported.
UNITS = {
    "trace.wall_s": "s", "trace.other_s": "s", "trace.overhead_ratio": "ratio",
    "trace.ops": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "data.parse_s": "s", "data.extract_s": "s",
    "topology.build_s": "s", "topology.calls": "count",
    "check.precheck_s": "s",
    "ebf.lp_build_s": "s", "ebf.row_add_s": "s", "ebf.scan_s": "s",
    "ebf.scan_calls": "count", "ebf.pairs_scanned": "count",
    "ebf.rounds": "count", "ebf.row_ratio": "ratio", "ebf.warm_rows": "count",
    "ebf.solve_self_s": "s",
    "lp.solve_s": "s", "lp.calls": "count", "lp.iterations": "count",
    "embedding.embed_s": "s",
    "perf.worker_busy_s": "s", "perf.pool_utilization": "ratio",
    "perf.dispatch_overhead_s": "s", "perf.chunks": "count",
    "perf.journal_append_s": "s", "perf.journal_appends": "count",
    "server.overhead_ms": "ms", "server.cache_hit_ratio": "ratio",
    "server.solves": "count", "server.shed": "count",
}

# Self time of these span names (summed) gives the timing metrics.
_TIMES = {
    "data.parse_s": ("data.parse",),
    "data.extract_s": ("data.extract",),
    "topology.build_s": ("topology.build",),
    "check.precheck_s": ("check.precheck",),
    "ebf.lp_build_s": ("ebf.lp_build",),
    "ebf.row_add_s": ("ebf.row_add",),
    "ebf.scan_s": ("ebf.scan",),
    "ebf.solve_self_s": ("ebf.solve",),
    "lp.solve_s": ("lp.solve",),
    "embedding.embed_s": ("embedding.embed",),
    "perf.journal_append_s": ("perf.journal_append",),
}


def layer_metrics(spans: list[Span], share: list[float], parent: list[int],
                  t0: int, t1: int) -> dict[str, float]:
    """Per-layer metrics of the window ``[t0, t1)``.

    Times are the self-time shares of :func:`tracer.attribute`; counts
    cover the spans that start inside the window.  The workload adds the
    ``perf.*`` pool figures and the ``server.*`` client figures, and the
    caller the ``trace.*`` totals.
    """
    by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    out = {name: 0.0 for name in UNITS}
    for i, (s, sh) in enumerate(zip(spans, share)):
        by_name[s.name] += sh
        out[f"{s.layer}.self_s"] += sh
        if not t0 <= s.start < t1:
            continue
        outer = parent[i] < 0 or spans[parent[i]].name != s.name
        calls[s.name] += outer
        for key, value in (s.counts or {}).items():
            counts[f"{s.name}.{key}"] += value
    for metric, names in _TIMES.items():
        out[metric] = sum(by_name[n] for n in names)
    out["topology.calls"] = calls["topology.build"]
    out["ebf.scan_calls"] = calls["ebf.scan"]
    out["ebf.pairs_scanned"] = counts["ebf.scan.pairs"]
    out["ebf.rounds"] = counts["ebf.solve.rounds"]
    pairs = counts["ebf.solve.total_pairs"]
    out["ebf.row_ratio"] = counts["ebf.solve.steiner_rows"] / pairs if pairs else 0.0
    out["ebf.warm_rows"] = counts["ebf.solve.warm_rows"]
    out["lp.calls"] = calls["lp.solve"]
    out["lp.iterations"] = counts["lp.solve.iterations"]
    out["perf.chunks"] = calls["perf.chunk"]
    out["perf.journal_appends"] = calls["perf.journal_append"]
    out["perf.worker_busy_s"] = counts["perf.submit.busy_s"]
    return out

"""Tests of the benchmark's timing wrappers and span attribution.

    PYTHONPATH=src python -m pytest lubtbench/tests -q
"""

import json
import multiprocessing as mp
import sys

import numpy as np
import pytest

import repro
import repro.perf
from layers import TARGETS
from tracer import Span, Target, Tracer, attribute, chrome_trace, load_spans


def _instance(m=8, seed=3):
    rng = np.random.default_rng(seed)
    sinks = [repro.Point(float(x), float(y)) for x, y in rng.uniform(0, 1000, (m, 2))]
    topo = repro.nearest_neighbor_topology(sinks, repro.Point(500.0, 500.0))
    return topo, repro.DelayBounds.normalized(topo, 0.8, 1.2)


def _bindings():
    """Identity of every attribute of every loaded repro module, and of
    every class attribute a target patches."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "repro" or name.startswith("repro.")):
            for attr, value in vars(mod).items():
                out[(name, attr)] = id(value)
    for t in TARGETS:
        if "." in t.attr:
            cls_name, meth = t.attr.split(".")
            cls = getattr(sys.modules[t.module], cls_name)
            out[(t.module, t.attr)] = id(vars(cls)[meth])
    return out


def test_wrapped_call_returns_the_same_value(tmp_path):
    topo, bounds = _instance()
    plain = repro.solve_lubt(topo, bounds)
    tracer = Tracer(tmp_path)
    with tracer:
        tracer.install(TARGETS)
        traced = repro.solve_lubt(topo, bounds)
        tree = repro.embed_tree(topo, traced.edge_lengths)
    assert traced.cost == plain.cost
    assert np.array_equal(traced.edge_lengths, plain.edge_lengths)
    assert np.array_equal(traced.delays, plain.delays)
    assert len(tree.placements) == topo.num_nodes
    names = {tracer.names[s[0]][0] for s in tracer.spans}
    assert {"ebf.solve", "lp.solve", "ebf.scan", "check.precheck",
            "embedding.embed"} <= names


def test_every_rebinding_is_restored(tmp_path):
    tracer = Tracer(tmp_path)
    tracer.install(TARGETS)  # also imports every target module
    tracer.restore()
    snapshot = _bindings()
    original = repro.ebf.solver.solve_lubt
    tracer.install(TARGETS)
    assert repro.ebf.solver.solve_lubt is not original
    # Every module holding a reference sees the same wrapper.
    assert repro.solve_lubt is repro.ebf.solve_lubt is repro.ebf.solver.solve_lubt
    assert _bindings() != snapshot
    tracer.restore()
    assert _bindings() == snapshot


def test_rebindings_are_restored_when_the_run_fails(tmp_path):
    tracer = Tracer(tmp_path)
    tracer.install(TARGETS)
    tracer.restore()
    snapshot = _bindings()
    with pytest.raises(RuntimeError):
        with tracer:
            tracer.install(TARGETS)
            raise RuntimeError("run failed")
    assert _bindings() == snapshot


def test_a_raising_call_is_recorded_and_reraised(tmp_path):
    def boom():
        raise ValueError("boom")

    tracer = Tracer(tmp_path)
    wrapped = tracer.wrap(boom, Target("m", "boom", "x.boom", "x"))
    with pytest.raises(ValueError):
        wrapped()
    assert len(tracer.spans) == 1 and tracer.spans[0][4] is None


def test_pool_workers_flush_their_spans(tmp_path):
    topo, bounds = _instance(m=10)
    plain = repro.solve_lubt(topo, bounds)
    tracer = Tracer(tmp_path)
    with tracer:
        tracer.install(TARGETS)
        tracer.enable_children()
        [outcome] = repro.perf.solve_many(
            [repro.perf.SolveTask(topo, bounds)], jobs=2, timeout=60.0
        )
    assert outcome.ok and outcome.value.cost == plain.cost
    spans = load_spans(tmp_path, own=tracer)
    worker = [s for s in spans if s.name == "ebf.solve"]
    assert worker and all(s.pid != mp.current_process().pid for s in worker)
    assert any(s.name == "perf.solve_many" for s in spans)


def _span(name, start, end, pid=1, tid=1, wait=False):
    return Span(name, name.split(".")[0], wait, int(start * 1e9), int(end * 1e9),
                pid, tid, None)


def test_self_time_excludes_children():
    spans = [_span("a.parent", 0, 10), _span("b.child", 2, 5)]
    share, parent = attribute(spans, 0, int(10e9))
    assert share == pytest.approx([7.0, 3.0])
    assert parent == [-1, 0]


def test_concurrent_spans_split_the_instant_and_waits_yield():
    spans = [
        _span("perf.wait", 0, 10, pid=1, wait=True),
        _span("lp.a", 0, 4, pid=2),
        _span("lp.b", 2, 4, pid=3),
    ]
    share, _ = attribute(spans, 0, int(10e9))
    # [0,2): lp.a alone; [2,4): lp.a and lp.b; [4,10): only the wait.
    assert share == pytest.approx([6.0, 3.0, 1.0])
    assert sum(share) == pytest.approx(10.0)


def test_window_clips_spans_and_leaves_gaps_unattributed():
    spans = [_span("a.x", 0, 3), _span("a.y", 5, 12)]
    share, _ = attribute(spans, int(1e9), int(10e9))
    assert share == pytest.approx([2.0, 5.0])


def test_chrome_trace_is_complete_events(tmp_path):
    spans = [_span("a.x", 1, 2, pid=7), _span("b.y", 1.5, 1.75, pid=7, tid=2)]
    path = tmp_path / "trace.json"
    chrome_trace(spans, int(1e9), path)
    events = json.loads(path.read_text())["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert [(e["name"], e["ts"], e["dur"]) for e in complete] == [
        ("a.x", 0.0, 1e6), ("b.y", 0.5e6, 0.25e6)]
    assert any(e["ph"] == "M" and e["pid"] == 7 for e in events)

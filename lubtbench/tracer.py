"""Span tracer for the benchmark's traced runs (stdlib only).

The tracer times the public functions of each ``repro`` layer from the
outside: :meth:`Tracer.install` rebinds every module attribute (and class
attribute) that refers to a listed function to a timing wrapper, and
:meth:`Tracer.restore` puts every original object back.  Nothing under
``src/`` changes.

A span is recorded when its call returns, as ``(key, start_ns, end_ns,
thread_id, counters)`` in a per-process list.  ``key`` indexes the
tracer's name table of ``(name, layer, wait)``.  Parents are not stored:
calls on one thread nest strictly, so :func:`attribute` rebuilds the
nesting from the times.

Processes forked by :mod:`multiprocessing` after :meth:`enable_children`
start with an empty span list and write it to ``spans-<pid>.json`` in
the tracer's directory when they exit; :func:`load_spans` merges those
files with the parent's spans.  All times come from
``time.perf_counter_ns`` (``CLOCK_MONOTONIC`` on Linux), so spans from
different processes share one clock.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

Counter = Callable[[tuple, dict, Any], Mapping[str, float]]


@dataclass(frozen=True)
class Target:
    """One function to trace: ``module`` + dotted ``attr`` (``"f"`` or
    ``"Class.method"``), the span ``name``, its ``layer``, whether the
    call mostly ``wait`` s on another process, and an optional
    ``counter(args, kwargs, result)`` returning counts for the span."""

    module: str
    attr: str
    name: str
    layer: str
    wait: bool = False
    counter: Counter | None = None


class Tracer:
    """Records spans for the wrapped functions of one process tree."""

    def __init__(self, out_dir: str | os.PathLike) -> None:
        self.out_dir = Path(out_dir)
        self.names: list[tuple[str, str, bool]] = []
        self.spans: list[tuple] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrapping --------------------------------------------------------
    def wrap(self, fn: Callable, target: Target) -> Callable:
        """A wrapper that records one span per call of ``fn``."""
        key = len(self.names)
        self.names.append((target.name, target.layer, target.wait))
        spans = self.spans
        counter = target.counter
        clock = time.perf_counter_ns
        ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((key, t0, clock(), ident(), None))
                raise
            t1 = clock()
            counts = counter(args, kwargs, result) if counter else None
            spans.append((key, t0, t1, ident(), counts))
            return result

        return traced

    def install(self, targets: Iterable[Target]) -> None:
        """Rebind every reference to each target inside loaded ``repro``
        modules.  Callers must :meth:`restore` (or use ``with``)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = list(targets)
        for t in targets:
            importlib.import_module(t.module)
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))
        ]
        try:
            for t in targets:
                owner: Any = sys.modules[t.module]
                *path, leaf = t.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                if path:
                    # A method: patch the class that defines it.
                    original = vars(owner)[leaf]
                    self._set(owner, leaf, self.wrap(original, t), original)
                    continue
                original = getattr(owner, leaf)
                wrapped = self.wrap(original, t)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, name, wrapped, original)
        except BaseException:
            self.restore()
            raise

    def _set(self, owner: Any, name: str, value: Any, original: Any) -> None:
        setattr(owner, name, value)
        self._patches.append((owner, name, original))

    def restore(self) -> None:
        """Undo every rebinding made by :meth:`install`."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    # -- child processes -------------------------------------------------
    def enable_children(self) -> None:
        """Make processes that :mod:`multiprocessing` forks from now on
        record into a fresh list and flush it when they exit."""
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        self.spans.clear()
        # Finalizers with a priority run when a multiprocessing child
        # returns from its target, before os._exit.
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    def flush(self) -> Path:
        """Write this process's spans to ``spans-<pid>.json``."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump({"pid": os.getpid(), "names": self.names,
                       "spans": self.spans}, fh)
        os.replace(tmp, path)
        return path


@dataclass(frozen=True)
class Span:
    name: str
    layer: str
    wait: bool
    start: int
    end: int
    pid: int
    tid: int
    counts: Mapping[str, float] | None


def spans_of(pid: int, names: list, raw: Iterable[tuple]) -> list[Span]:
    out = []
    for key, t0, t1, tid, counts in raw:
        name, layer, wait = names[key]
        out.append(Span(name, layer, bool(wait), t0, t1, pid, tid, counts))
    return out


def load_spans(out_dir: str | os.PathLike, own: Tracer | None = None) -> list[Span]:
    """Every span flushed under ``out_dir``, plus ``own`` in-memory spans."""
    spans: list[Span] = []
    if own is not None:
        spans += spans_of(os.getpid(), own.names, own.spans)
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        with open(path) as fh:
            doc = json.load(fh)
        spans += spans_of(doc["pid"], doc["names"], doc["spans"])
    return spans


def attribute(spans: list[Span], t0: int, t1: int) -> tuple[list[float], list[int]]:
    """Seconds of the window ``[t0, t1)`` attributed to each span, and
    each span's parent index on its own thread (-1 for none).

    Within one thread only the innermost open span runs, so a span's
    share excludes the time its children cover (its self time).  Across
    threads and processes, each instant is split evenly among the
    innermost spans open at that instant.  Spans marked ``wait`` (a
    caller blocked on another process) drop out of that split whenever
    some non-waiting span is open anywhere: the time belongs to the
    work being waited for.  An instant with no open span is left
    unattributed, so the shares sum to the traced part of the window.
    """
    order: dict[tuple[int, int], list[int]] = {}
    for i, s in enumerate(spans):
        order.setdefault((s.pid, s.tid), []).append(i)
    # Innermost-span segments per thread: (start, end, span index).
    segments: list[tuple[int, int, int]] = []
    parent = [-1] * len(spans)
    for idx in order.values():
        # Parents start no later and end no earlier than their children;
        # on exact ties the later-recorded span (the parent) comes first.
        idx.sort(key=lambda i: (spans[i].start, -spans[i].end, -i))
        stack: list[int] = []
        cursor = None
        for i in idx:
            s = spans[i]
            while stack and spans[stack[-1]].end <= s.start:
                top = stack.pop()
                segments.append((cursor, spans[top].end, top))
                cursor = spans[top].end
            if stack:
                segments.append((cursor, s.start, stack[-1]))
                parent[i] = stack[-1]
            stack.append(i)
            cursor = s.start
        while stack:
            top = stack.pop()
            segments.append((cursor, spans[top].end, top))
            cursor = spans[top].end
    events: list[tuple[int, int, int]] = []
    for a, b, i in segments:
        a, b = max(a, t0), min(b, t1)
        if a < b:
            events.append((a, 1, i))
            events.append((b, -1, i))
    events.sort(key=lambda e: (e[0], e[1]))
    share = [0.0] * len(spans)
    active: dict[int, int] = {}
    last = None
    for t, kind, i in events:
        if last is not None and t > last and active:
            busy = [j for j in active if not spans[j].wait]
            runs = busy or list(active)
            dt = (t - last) / len(runs) * 1e-9
            for j in runs:
                share[j] += dt
        last = t
        if kind == 1:
            active[i] = active.get(i, 0) + 1
        else:
            active[i] -= 1
            if not active[i]:
                del active[i]
    return share, parent


def chrome_trace(spans: list[Span], t0: int, path: str | os.PathLike) -> None:
    """Write ``spans`` as Chrome trace-event JSON (Perfetto,
    ``chrome://tracing``); times are microseconds from ``t0``."""
    events: list[dict[str, Any]] = []
    for pid in sorted({s.pid for s in spans}):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": f"pid {pid}"}})
    for s in spans:
        ev: dict[str, Any] = {
            "name": s.name, "cat": s.layer, "ph": "X",
            "ts": (s.start - t0) / 1e3, "dur": (s.end - s.start) / 1e3,
            "pid": s.pid, "tid": s.tid,
        }
        if s.counts:
            ev["args"] = dict(s.counts)
        events.append(ev)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)

"""The three workloads: ``cts-leaf``, ``big-net`` and ``server-mixed``.

Each workload has the same four steps, which ``run.py`` calls in order:
``setup_sample`` (one set-up time, in a fresh process), ``prepare``
(seeded inputs, not timed), ``phase`` (the timed loop, optionally with
the tracer installed) and ``check`` (correctness of every op, after
the timed phase).  Program code is reached through module attributes
(``repro.perf.run_cts``) at call time, so a tracer installed for the
phase sees every call.
"""

from __future__ import annotations

import re
import select
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from checks import check_solution, cross_check, sample
from common import (
    Context,
    Phase,
    Slice,
    Timebox,
    peak_rss_mb,
    proc_children,
    proc_cpu_s,
    self_cpu_s,
)
from layers import TARGETS
from tracer import Tracer

DIE = 14_000.0


@contextmanager
def tracing(tracer: Tracer | None) -> Iterator[None]:
    """Install ``tracer`` (when given) for the duration of the block."""
    if tracer is None:
        yield
        return
    tracer.install(TARGETS)
    tracer.enable_children()
    try:
        yield
    finally:
        tracer.restore()


def distinct_sinks(count: int, seed: int) -> list:
    """``count`` uniform sinks on the die, without coordinate repeats."""
    from repro.data.generators import uniform_sinks

    seen: dict[tuple[float, float], Any] = {}
    for p in uniform_sinks(count + 64, seed, width=DIE, height=DIE):
        seen.setdefault((p.x, p.y), p)
    sinks = list(seen.values())[:count]
    if len(sinks) < count:
        raise ValueError(f"could not draw {count} distinct sinks")
    return sinks


class CtsLeaf:
    """Thousands of 6-sink clock nets through ``run_cts`` on a resident
    pool, one placement of ``NETS`` nets per call, each with a fresh
    journal.  Per-net fixed cost (precheck, LP build, dense simplex),
    dispatch and journal fsync dominate.  Every batch gets a placement
    of its own, so a run's nets are all distinct and the mix of one-,
    two- and three-round nets varies little from seed to seed.

    The pool has one worker: with the parent dispatching and journaling
    beside it, that is as many busy processes as a two-core machine has
    cores.  With two workers the three processes share two cores, so a
    net's time includes waiting for the parent, and its p99 followed
    the machine's other load (quartile spread over five seeds 25%,
    against 6% with one worker, measured side by side)."""

    name = "cts-leaf"
    jobs = 1
    NETS = 1000
    SINKS = 6
    PLACEMENTS = 16  # more than a 30 s run uses
    CROSS_SHARE = 0.01

    def setup_sample(self, ctx: Context) -> float:
        return ctx.setup_probe(self.jobs)

    def prepare(self, ctx: Context) -> list:
        from repro.data.placement import save_placement_map, synth_placement

        paths = []
        for i in range(self.PLACEMENTS):
            path = ctx.work / f"placement-{i}.map"
            save_placement_map(
                synth_placement(self.NETS, self.SINKS, ctx.subseed(i)), path
            )
            paths.append(path)
        return paths

    def phase(self, ctx: Context, paths: list, seconds: float,
              tracer: Tracer | None) -> Phase:
        import repro.perf

        batches, slices = [], []
        with tracing(tracer):
            pool = repro.perf.WorkerPool(self.jobs)

            def cpu() -> float:
                workers = [p.pid for p in pool.worker_processes()]
                return self_cpu_s() + sum(map(proc_cpu_s, workers))

            try:
                box = Timebox(seconds)
                last, last_cpu = time.perf_counter(), cpu()
                t0 = time.perf_counter_ns()
                while box.more():
                    path = paths[len(batches) % len(paths)]
                    jpath = ctx.fresh_path("journal")
                    with repro.perf.SolveJournal(jpath) as journal:
                        report = repro.perf.run_cts(
                            path, jobs=self.jobs, pool=pool, journal=journal
                        )
                    now, now_cpu = time.perf_counter(), cpu()
                    slices.append(Slice(report.solved, now - last, now_cpu - last_cpu))
                    last, last_cpu = now, now_cpu
                    batches.append((path, jpath, report))
                    box.tick()
                t1 = time.perf_counter_ns()
                workers = [p.pid for p in pool.worker_processes()]
                rss = peak_rss_mb() + max(map(peak_rss_mb, workers))
            finally:
                pool.close()
        failures = {(b, i): r.error or "failed"
                    for b, (*_, report) in enumerate(batches)
                    for i, r in enumerate(report.results) if not r.ok}
        busy = sum(r.seconds for *_, rep in batches for r in rep.results)
        return Phase(
            wall_s=(t1 - t0) * 1e-9, t0_ns=t0, t1_ns=t1,
            attempted=sum(rep.nets for *_, rep in batches),
            # One latency group per batch: 1000 nets leave 10 beyond p99.
            latencies_s=[[r.seconds for r in rep.results if r.ok]
                         for *_, rep in batches],
            slices=slices, rss_mb=rss, failures=failures, records=batches,
            extra={"perf.worker_busy_s": busy},
        )

    def check(self, ctx: Context, paths: list, phase: Phase) -> dict:
        import json

        from repro.perf import cts_tasks
        from repro.server.keys import instance_key

        tasks, keys = {}, {}
        for path in {path for path, _, _ in phase.records}:
            tasks[path] = cts_tasks(path)
            keys[path] = [instance_key(t.topo, t.bounds, dict(t.options))
                          for _, t in tasks[path]]
        failures: dict = {}
        solved = []
        for b, (path, jpath, report) in enumerate(phase.records):
            with open(jpath) as fh:
                journal = {d["key"]: d["result"] for d in map(json.loads, fh)}
            if len(report.results) != len(tasks[path]):
                failures[(b, -1)] = "batch result count differs from its nets"
                continue
            for i, r in enumerate(report.results):
                net, task = tasks[path][i]
                rec = journal.get(keys[path][i])
                if not r.ok:
                    continue
                if r.name != net.name or rec is None or rec["cost"] != r.cost:
                    failures[(b, i)] = "result does not match its journal record"
                    continue
                problem = check_solution(task.topo, task.bounds,
                                         rec["edge_lengths"], rec["delays"], rec["cost"])
                if problem:
                    failures[(b, i)] = problem
                solved.append(((b, i), task, rec))
        rng = np.random.default_rng(ctx.subseed(99))
        for op, task, rec in sample(rng, solved, self.CROSS_SHARE, 10):
            problem = cross_check(task.topo, task.bounds, rec["edge_lengths"],
                                  rec["cost"], rec["stats"]["backend"])
            if problem:
                failures[op] = problem
        return failures


class BigNet:
    """Seeded uniform 2048-sink nets, one at a time, inline: nearest-
    neighbour topology, normalized [0.8, 1.2] window, tree-backend
    solve, verified embedding.  Topology build, HiGHS and the O(m^2)
    scans dominate; pool, server and per-net fixed cost are absent."""

    name = "big-net"
    jobs = 0
    SINKS = 2048
    NETS = 12
    LOWER, UPPER = 0.8, 1.2

    def setup_sample(self, ctx: Context) -> float:
        return ctx.setup_probe(0)

    def prepare(self, ctx: Context) -> list:
        return [distinct_sinks(self.SINKS, ctx.subseed(i)) for i in range(self.NETS)]

    def phase(self, ctx: Context, nets: list, seconds: float,
              tracer: Tracer | None) -> Phase:
        import repro

        source = repro.Point(DIE / 2, DIE / 2)
        records, latencies, slices, failures = [], [], [], {}
        with tracing(tracer):
            box = Timebox(seconds)
            t0 = time.perf_counter_ns()
            while box.more():
                k = box.done
                start, start_cpu = time.perf_counter(), self_cpu_s()
                try:
                    topo = repro.nearest_neighbor_topology(nets[k % len(nets)], source)
                    bounds = repro.DelayBounds.normalized(topo, self.LOWER, self.UPPER)
                    sol = repro.solve_lubt(topo, bounds, backend="tree")
                    repro.embed_tree(topo, sol.edge_lengths, verify=True)
                except Exception as exc:  # noqa: BLE001 — an op failure
                    failures[k] = f"{type(exc).__name__}: {exc}"
                else:
                    latencies.append(time.perf_counter() - start)
                    slices.append(Slice(1, latencies[-1], self_cpu_s() - start_cpu))
                    records.append((k, topo, bounds, sol))
                box.tick()
            t1 = time.perf_counter_ns()
        return Phase(
            wall_s=(t1 - t0) * 1e-9, t0_ns=t0, t1_ns=t1, attempted=box.done,
            latencies_s=[latencies], slices=slices, rss_mb=peak_rss_mb(),
            failures=failures, records=records,
        )

    def check(self, ctx: Context, nets: list, phase: Phase) -> dict:
        failures = {}
        for k, topo, bounds, sol in phase.records:
            problem = check_solution(topo, bounds, sol.edge_lengths, sol.delays, sol.cost)
            if problem:
                failures[k] = problem
        rng = np.random.default_rng(ctx.subseed(99))
        for k, topo, bounds, sol in sample(rng, phase.records, 0.0, 1):
            problem = cross_check(topo, bounds, sol.edge_lengths, sol.cost,
                                  sol.stats.backend)
            if problem:
                failures[k] = problem
        return failures


class ServerProcess:
    """``lubt serve --jobs N`` in its own process, ready once it has
    answered ``ping``; ``ready_s`` is the time from launch to that."""

    def __init__(self, ctx: Context, jobs: int, span_dir=None) -> None:
        from repro.server import ServerClient

        serve = ["--port", "0", "--jobs", str(jobs)]
        if span_dir is None:
            cmd = [sys.executable, "-m", "repro", "serve", *serve]
        else:
            cmd = [sys.executable, str(ctx.bench / "serve_traced.py"),
                   str(span_dir), *serve]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ctx.work, env=ctx.env,
                                     stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 120.0)
            line = self.proc.stdout.readline() if ready else ""
            match = re.search(r"listening on [^:\s]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(match.group(1))
            with ServerClient(port=self.port, connect_retries=0) as client:
                client.ping()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            raise
        self.ready_s = time.perf_counter() - t0

    @property
    def pids(self) -> list[int]:
        return [self.proc.pid, *proc_children(self.proc.pid)]

    def client(self):
        from repro.server import ServerClient

        # A shed must surface as a failure, not be retried away.
        return ServerClient(port=self.port, connect_retries=0,
                            busy_retries=0, timeout=60.0)

    def stop(self) -> None:
        """Shut the server down and wait for it (and its workers) to exit."""
        try:
            with self.client() as client:
                client.shutdown()
            self.proc.wait(timeout=60.0)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


@dataclass
class ServerOp:
    client: int
    index: int
    kind: str
    instances: list  # (identity, topo, bounds) per solve or sweep point
    seconds: float
    replies: list


class ServerMixed:
    """A resident ``lubt serve --jobs 2`` driven by two closed-loop
    client connections.  Each client sends blocks of 20 requests in a
    seeded order: 15 repeats of its own recent solves (cache reads), 4
    new delay windows on catalogue topologies (misses that read and
    write the warm store and run the default lazy loop) and one 4-point
    sweep.  Topologies are taken in seeded rounds over the catalogue,
    so every seed spreads its misses evenly over the net sizes."""

    name = "server-mixed"
    jobs = 2
    CLIENTS = 2
    CATALOGUE = 24
    MIN_SINKS, MAX_SINKS = 48, 128
    BLOCK = ("repeat",) * 15 + ("new",) * 4 + ("sweep",)
    SWEEP_POINTS = 4
    # Repeats draw from the client's last RECENT solves, few enough that
    # the server's 256-entry cache still holds them: every repeat is a hit.
    RECENT = 16
    WINDOW_S = 2.0
    CROSS_SHARE = 0.05

    def setup_sample(self, ctx: Context) -> float:
        server = ServerProcess(ctx, self.jobs)
        server.stop()
        return server.ready_s

    def prepare(self, ctx: Context) -> list:
        from repro.ebf.bounds import radius_of
        from repro.geometry import Point
        from repro.topology import nearest_neighbor_topology

        # Sizes are fixed and evenly spread, so the work mix does not
        # change from seed to seed; the seed places the sinks.
        sizes = np.linspace(self.MIN_SINKS, self.MAX_SINKS, self.CATALOGUE)
        catalogue = []
        for t, m in enumerate(np.rint(sizes).astype(int)):
            topo = nearest_neighbor_topology(
                distinct_sinks(int(m), ctx.subseed(1, t)), Point(DIE / 2, DIE / 2)
            )
            catalogue.append((topo, radius_of(topo)))
        return catalogue

    def _requests(self, ctx: Context, catalogue: list, client: int) -> Iterator:
        """Endless seeded request stream of one client: ``(kind,
        [(identity, topo, bounds), ...])``."""
        from repro.ebf import DelayBounds

        rng = np.random.default_rng(ctx.subseed(2, client))
        recent: deque = deque(maxlen=self.RECENT)

        def rounds() -> Iterator[int]:
            while True:
                yield from map(int, rng.permutation(self.CATALOGUE))

        def instance(t, lo, hi):
            topo, r = catalogue[t]
            return ((t, lo, hi), topo,
                    DelayBounds.uniform(topo.num_sinks, lo * r, hi * r))

        solves, sweeps = rounds(), rounds()
        while True:
            for kind in rng.permutation(self.BLOCK):
                if kind == "repeat" and recent:
                    yield "solve", [recent[int(rng.integers(len(recent)))]]
                elif kind == "sweep":
                    t = next(sweeps)
                    lo, hi = rng.uniform(0.6, 0.7), rng.uniform(1.15, 1.25)
                    yield "sweep", [instance(t, lo + 0.05 * k, hi)
                                    for k in range(self.SWEEP_POINTS)]
                else:
                    inst = instance(next(solves), rng.uniform(0.7, 0.8),
                                    rng.uniform(1.15, 1.25))
                    recent.append(inst)
                    yield "solve", [inst]

    def _warm_up(self, server, catalogue: list) -> None:
        """Solve every catalogue topology once before timing, over the
        clients' connections, so the timed phase sees a resident
        server's steady state: every topology already has warm rows."""
        from repro.ebf import DelayBounds

        def solve(share: list) -> None:
            with server.client() as client:
                for topo, r in share:
                    client.solve(topo, DelayBounds.uniform(topo.num_sinks, 0.75 * r, 1.2 * r))

        threads = [threading.Thread(target=solve, args=(catalogue[c::self.CLIENTS],))
                   for c in range(self.CLIENTS)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()

    def _client(self, server, stream, box, ops, failures, cid) -> None:
        from repro.server import ServerError

        with server.client() as client:
            while box.more():
                index = box.done
                kind, instances = next(stream)
                start = time.perf_counter()
                try:
                    if kind == "sweep":
                        _, topo, _ = instances[0]
                        replies, _ = client.sweep(topo, [b for _, _, b in instances])
                        bad = [p for p in replies if not p.get("ok")]
                        if bad or len(replies) != len(instances):
                            raise ServerError(bad[0] if bad else {"error": "lost points"})
                    else:
                        _, topo, bounds = instances[0]
                        replies = [client.solve(topo, bounds)]
                except (ServerError, OSError, ValueError) as exc:
                    # The connection may be out of step now: stop this client.
                    failures[(cid, index)] = f"{type(exc).__name__}: {exc}"
                    box.tick()
                    return
                ops.append(ServerOp(cid, index, kind, instances,
                                    time.perf_counter() - start, replies))
                box.tick()

    def phase(self, ctx: Context, catalogue: list, seconds: float,
              tracer: Tracer | None) -> Phase:
        span_dir = None if tracer is None else tracer.out_dir
        ops: list[ServerOp] = []
        failures: dict = {}
        boxes, slices = [], []
        with tracing(tracer):
            server = ServerProcess(ctx, self.jobs, span_dir)

            def cpu() -> float:
                return sum(map(proc_cpu_s, server.pids))

            try:
                self._warm_up(server, catalogue)
                with server.client() as admin:
                    before = admin.stats()
                    threads = []
                    for cid in range(self.CLIENTS):
                        box = Timebox(seconds)
                        boxes.append(box)
                        threads.append(threading.Thread(
                            target=self._client,
                            args=(server, self._requests(ctx, catalogue, cid),
                                  box, ops, failures, cid),
                        ))
                    last, last_cpu, last_ops = time.perf_counter(), cpu(), 0
                    t0 = time.perf_counter_ns()
                    for th in threads:
                        th.start()
                    # Sample completed ops and server CPU once per window.
                    while any(th.is_alive() for th in threads):
                        for th in threads:
                            th.join(max(0.0, last + self.WINDOW_S - time.perf_counter()))
                        now, now_cpu, done = time.perf_counter(), cpu(), len(ops)
                        slices.append(Slice(done - last_ops, now - last, now_cpu - last_cpu))
                        last, last_cpu, last_ops = now, now_cpu, done
                    t1 = time.perf_counter_ns()
                    pids = server.pids
                    rss = peak_rss_mb(pids[0]) + max(map(peak_rss_mb, pids[1:]))
                    after = admin.stats()
            finally:
                server.stop()
        answered = [r for op in ops for r in op.replies]
        misses = [op.seconds - op.replies[0]["result"]["stats"]["wall_seconds"]
                  for op in ops if op.kind == "solve" and not op.replies[0]["cache_hit"]]
        extra = {
            "server.cache_hit_ratio":
                sum(bool(r["cache_hit"]) for r in answered) / max(1, len(answered)),
            "server.overhead_ms": 1e3 * statistics.median(misses) if misses else 0.0,
            "server.solves": after["solves"] - before["solves"],
            "server.shed": after["shed"] - before["shed"],
        }
        return Phase(
            wall_s=(t1 - t0) * 1e-9, t0_ns=t0, t1_ns=t1,
            attempted=sum(b.done for b in boxes),
            latencies_s=[[op.seconds for op in ops]], slices=slices, rss_mb=rss,
            failures=failures, records=ops, extra=extra,
        )

    def check(self, ctx: Context, catalogue: list, phase: Phase) -> dict:
        failures: dict = {}
        first: dict = {}  # identity -> (op id, topo, bounds, payload)
        for op in phase.records:
            for (ident, topo, bounds), reply in zip(op.instances, op.replies):
                payload = reply["result"]
                seen = first.setdefault(ident, ((op.client, op.index), topo, bounds, payload))
                if seen[3] is not payload and (
                    seen[3]["cost"] != payload["cost"]
                    or seen[3]["edge_lengths"] != payload["edge_lengths"]
                ):
                    failures[(op.client, op.index)] = "repeat answer differs"
        for op_id, topo, bounds, payload in first.values():
            problem = check_solution(topo, bounds, payload["edge_lengths"],
                                     payload["delays"], payload["cost"])
            if problem:
                failures[op_id] = problem
        rng = np.random.default_rng(ctx.subseed(99))
        for op_id, topo, bounds, payload in sample(rng, list(first.values()),
                                                   self.CROSS_SHARE, 10):
            problem = cross_check(topo, bounds, payload["edge_lengths"],
                                  payload["cost"], payload["stats"]["backend"])
            if problem:
                failures[op_id] = problem
        return failures


WORKLOADS = {w.name: w for w in (CtsLeaf(), BigNet(), ServerMixed())}

"""Batch LUBT solving on top of :mod:`repro.perf.scheduler`.

A :class:`SolveTask` is one independent ``solve_lubt`` call (topology,
bounds, keyword options); :func:`solve_many` fans a list of them across
resident worker processes.  Tasks travel to the workers by pipe, so
topologies and bounds must stay picklable — both are plain
dataclass-style containers and are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.perf.journal import (
    SolveJournal,
    solution_from_record,
    solution_to_record,
)
from repro.perf.pool import TaskOutcome, WorkerPool
from repro.perf.scheduler import (
    DEFAULT_CHUNK_SECONDS,
    DEFAULT_MAX_CHUNK,
    BatchScheduler,
)


@dataclass(frozen=True)
class SolveTask:
    """One independent LUBT instance: ``solve_lubt(topo, bounds, **options)``."""

    topo: Any
    bounds: Any
    options: Mapping[str, Any] = field(default_factory=dict)


def _solve_task(task: SolveTask):
    from repro.ebf import solve_lubt

    return solve_lubt(task.topo, task.bounds, **dict(task.options))


def _task_key(topo: Any, bounds: Any, options: Mapping[str, Any]) -> str:
    # Imported here: repro.server already imports repro.perf.
    from repro.server.keys import instance_key

    return instance_key(topo, bounds, dict(options))


def solve_many(
    tasks: Sequence[SolveTask],
    *,
    jobs: int = 1,
    timeout: float | None = None,
    start_method: str | None = None,
    journal: SolveJournal | None = None,
    pool: WorkerPool | None = None,
    on_result: Any = None,
    chunk_seconds: float = DEFAULT_CHUNK_SECONDS,
    max_chunk: int = DEFAULT_MAX_CHUNK,
) -> list[TaskOutcome]:
    """Solve every task; outcomes come back in task order.

    ``outcome.value`` is the :class:`~repro.ebf.LubtSolution` on success;
    ``outcome.unwrap()`` raises :class:`~repro.perf.TaskError` on worker
    failure or timeout.  ``jobs=1`` with no timeout (and no ``pool``)
    runs inline and is bit-for-bit identical to a serial loop of
    ``solve_lubt`` calls.

    Parallel batches run on a **resident** :class:`~repro.perf.WorkerPool`
    (pass ``pool=`` to reuse one across batches — e.g. a whole CTS run —
    otherwise one is forked for the call) through the chunked
    :class:`~repro.perf.BatchScheduler`: many tasks per IPC message with
    the chunk size auto-tuned from an EWMA of per-task solve seconds
    (``chunk_seconds``/``max_chunk``), results streaming back per
    completion.  A per-task ``timeout`` kills only the offending task's
    worker; the rest of its chunk is resubmitted.

    ``on_result(outcome)`` — when given — fires once per task in
    completion order (journal replays first, then live completions as
    they land); ``outcome.index`` is the task's position in ``tasks``.

    With a ``journal`` (:class:`~repro.perf.SolveJournal`), tasks whose
    canonical instance key already has a journal record are *replayed*
    instead of re-solved, and every fresh success is durably appended
    (flush + fsync) **the moment it completes** — no wave barrier, so a
    straggler cannot hold completed solves out of the journal, and a run
    killed mid-batch resumes from its last completed *solve*.
    Failed/timed-out tasks are never journaled; a resume retries them.
    """
    tasks = list(tasks)
    results: list[TaskOutcome | None] = [None] * len(tasks)
    fresh: list[int] = list(range(len(tasks)))

    keys: list[str] | None = None
    done: dict[str, dict] = {}
    if journal is not None:
        keys = [_task_key(t.topo, t.bounds, t.options) for t in tasks]
        done = journal.load()
        fresh = []
        for i, t in enumerate(tasks):
            rec = done.get(keys[i])
            if rec is not None:
                results[i] = TaskOutcome(
                    i, True, solution_from_record(rec, t.topo, t.bounds)
                )
                journal.replayed += 1
                if on_result is not None:
                    on_result(results[i])
            else:
                fresh.append(i)

    def _completed(i: int, o: TaskOutcome) -> None:
        out = TaskOutcome(
            i, o.ok, o.value, o.error, o.timed_out, o.crashed, o.elapsed
        )
        results[i] = out
        if journal is not None and o.ok and keys[i] not in done:
            rec = solution_to_record(o.value)
            journal.append(keys[i], rec)
            done[keys[i]] = rec
        if on_result is not None:
            on_result(out)

    inline = jobs == 1 and timeout is None and pool is None
    if inline:
        import time as time_mod

        for i in fresh:
            t0 = time_mod.perf_counter()
            try:
                out = TaskOutcome(
                    i, True, _solve_task(tasks[i]),
                    elapsed=time_mod.perf_counter() - t0,
                )
            except Exception as exc:  # noqa: BLE001 — outcome boundary
                out = TaskOutcome(
                    i, False, error=f"{type(exc).__name__}: {exc}",
                    elapsed=time_mod.perf_counter() - t0,
                )
            _completed(i, out)
    elif fresh:
        own_pool = pool is None
        active = pool if pool is not None else WorkerPool(
            jobs, start_method
        )
        try:
            scheduler = BatchScheduler(
                active, chunk_seconds=chunk_seconds, max_chunk=max_chunk
            )
            scheduler.run(
                _solve_task,
                [(tasks[i],) for i in fresh],
                timeout=timeout,
                on_result=lambda o: _completed(fresh[o.index], o),
            )
        finally:
            if own_pool:
                active.close()
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]


def sweep_chunks(count: int, chunks: int) -> list[tuple[int, int]]:
    """Split ``range(count)`` into ``chunks`` contiguous near-equal
    ``(start, stop)`` slices (empty slices dropped).

    Contiguity matters: a warm-started sweep shard works best when its
    points are neighbors in the sweep, because adjacent bound sets share
    almost all of their active Steiner rows.
    """
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    chunks = min(chunks, max(1, count))
    base, extra = divmod(count, chunks)
    out: list[tuple[int, int]] = []
    start = 0
    for c in range(chunks):
        stop = start + base + (1 if c < extra else 0)
        if stop > start:
            out.append((start, stop))
        start = stop
    return out


def _solve_sweep_chunk(topo, bounds_chunk, options):
    from repro.ebf.sweep import solve_sweep

    return solve_sweep(topo, bounds_chunk, **dict(options))


def solve_sweep_sharded(
    topo: Any,
    bounds_list: Sequence[Any],
    *,
    jobs: int = 1,
    chunks: int | None = None,
    timeout: float | None = None,
    start_method: str | None = None,
    journal: SolveJournal | None = None,
    **options: Any,
) -> list[Any]:
    """Warm-started sweep over one topology, sharded across resident
    worker processes.

    Unlike :func:`solve_many` — which ships every point to whichever
    worker is free — this chunks the sweep into ``chunks`` (default:
    ``jobs``) *contiguous* shards and runs each shard through
    :func:`repro.ebf.solve_sweep` inside one worker, so the
    :class:`~repro.ebf.WarmStart` state stays process-local and every
    point after a shard's first still gets the warm seeding.  Extra
    keywords (``warm=``, ``backend=``, ...) pass through to
    :func:`~repro.ebf.solve_sweep`.

    Returns the :class:`~repro.ebf.LubtSolution` list in sweep order.
    ``jobs=1`` with no timeout runs inline — identical to calling
    ``solve_sweep`` directly.  Raw edge vectors (and costs, at the last
    ulp) can depend on the chunking because warm seeding selects among
    degenerate LP optima; report costs through
    :func:`repro.ebf.canonical_cost` for chunking-invariant output.

    With a ``journal``, points whose canonical instance key is already
    recorded are replayed; only the missing points are swept (as their
    own contiguous sub-sweep), with each shard's records fsync'd the
    moment that shard completes — no barrier across shards.  Resumed
    sweeps therefore re-chunk the *remaining* points — same caveat as
    above: chunking-invariant at the :func:`repro.ebf.canonical_cost`
    level, where every experiment table reports.
    """
    bounds_list = list(bounds_list)
    results: list[Any] = [None] * len(bounds_list)
    missing = list(range(len(bounds_list)))
    keys: list[str] = []
    done: dict[str, dict] = {}
    if journal is not None:
        keys = [_task_key(topo, b, options) for b in bounds_list]
        done = journal.load()
        missing = []
        for i, b in enumerate(bounds_list):
            rec = done.get(keys[i])
            if rec is not None:
                results[i] = solution_from_record(rec, topo, b)
                journal.replayed += 1
            else:
                missing.append(i)

    shards = [
        missing[a:b]
        for a, b in sweep_chunks(len(missing), chunks if chunks else max(1, jobs))
    ]

    def _absorb(k: int, sols: list) -> None:
        # One shard done: its points are durable before the next lands.
        for i, sol in zip(shards[k], sols):
            results[i] = sol
            if journal is not None and keys[i] not in done:
                rec = solution_to_record(sol)
                journal.append(keys[i], rec)
                done[keys[i]] = rec

    def _on_shard(o: TaskOutcome) -> None:
        if o.ok:
            _absorb(o.index, o.value)

    args = [
        (topo, [bounds_list[i] for i in shard], options) for shard in shards
    ]
    if jobs == 1 and timeout is None:
        for k, a in enumerate(args):
            _absorb(k, _solve_sweep_chunk(*a))
    elif args:
        with WorkerPool(min(jobs, len(args)), start_method) as pool:
            outcomes = BatchScheduler(pool).run(
                _solve_sweep_chunk, args, timeout=timeout, on_result=_on_shard
            )
        for o in outcomes:
            o.unwrap()  # the first failed shard raises TaskError
    assert all(r is not None for r in results)
    return results

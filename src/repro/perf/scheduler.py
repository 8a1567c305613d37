"""Chunked batch scheduler over the resident :class:`~repro.perf.WorkerPool`.

The one dispatch engine of :mod:`repro.perf`: :func:`map_many`,
:func:`~repro.perf.solve_many`, :func:`~repro.perf.solve_sweep_sharded`
and :func:`~repro.perf.run_cts` all run their parallel batches through
it.  Once the tree backend makes a per-net solve sub-100ms and a
chip-scale CTS run pushes 10k nets through one command, process starts,
per-task IPC and batch barriers dominate the wall time.  The
:class:`BatchScheduler` removes them:

* **fork once** — tasks run on a resident pool's workers, shipped over
  already-open pipes instead of fresh processes;
* **chunked dispatch** — many tasks per IPC message, with the chunk size
  auto-tuned from an EWMA of observed per-task seconds so each chunk
  targets a fixed wall-clock slice (big chunks for sub-millisecond
  tasks, chunk size 1 for slow ones);
* **completion-ordered streaming** — an ``on_result`` callback fires for
  every task the moment its reply arrives (workers stream one reply per
  chunk item), so journal appends are per completion and a straggler
  never stalls the other workers' results behind a wave barrier;
* **scoped kills** — a per-task ``timeout`` kills only the offending
  task's worker; the chunk's already-finished items keep their results
  and its not-yet-started survivors are resubmitted automatically.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Sequence

from repro.perf.pool import TaskOutcome, WorkerPool

#: Wall-clock slice one chunk should occupy.  Small enough that the
#: tail of a batch stays load-balanced across workers, large enough to
#: amortize a pickle/send round-trip over many sub-millisecond tasks.
DEFAULT_CHUNK_SECONDS = 0.25

#: Hard ceiling on tasks per chunk, whatever the EWMA says.
DEFAULT_MAX_CHUNK = 64


class BatchScheduler:
    """Run batches of tasks through a resident pool with chunked dispatch.

    One scheduler wraps one :class:`~repro.perf.WorkerPool` and may be
    reused across batches (the EWMA carries over, so a follow-up batch
    of similar tasks starts with a tuned chunk size).  Thread-safety
    matches the pool's: :meth:`run` may be called from any one thread at
    a time.
    """

    def __init__(
        self,
        pool: WorkerPool,
        *,
        chunk_seconds: float = DEFAULT_CHUNK_SECONDS,
        max_chunk: int = DEFAULT_MAX_CHUNK,
        ewma_alpha: float = 0.25,
    ) -> None:
        if chunk_seconds <= 0:
            raise ValueError(f"chunk_seconds must be > 0, got {chunk_seconds}")
        if max_chunk < 1:
            raise ValueError(f"max_chunk must be >= 1, got {max_chunk}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.pool = pool
        self.chunk_seconds = chunk_seconds
        self.max_chunk = max_chunk
        self.ewma_alpha = ewma_alpha
        self._lock = threading.Lock()
        # EWMA of per-task seconds; None until the first completion, so
        # the first chunks are size 1 (probes) rather than a guess.
        self._ewma: float | None = None
        #: Chunks dispatched / tasks completed across this scheduler's
        #: lifetime — ``tasks_done / chunks_dispatched`` is the realized
        #: IPC amortization factor.
        self.chunks_dispatched = 0
        self.tasks_done = 0
        self.resubmitted = 0

    # -- tuning --------------------------------------------------------
    def _observe(self, elapsed: float) -> None:
        with self._lock:
            if self._ewma is None:
                self._ewma = elapsed
            else:
                a = self.ewma_alpha
                self._ewma = a * elapsed + (1.0 - a) * self._ewma

    def chunk_size(self) -> int:
        """Current auto-tuned tasks-per-chunk (1 until the EWMA warms up)."""
        with self._lock:
            ewma = self._ewma
        if ewma is None:
            return 1
        return max(1, min(self.max_chunk,
                          int(self.chunk_seconds / max(ewma, 1e-9))))

    def stats(self) -> dict:
        """Scheduler + pool counters (``ewma_task_seconds`` may be None)."""
        with self._lock:
            ewma = self._ewma
            out = {
                "chunks_dispatched": self.chunks_dispatched,
                "tasks_done": self.tasks_done,
                "resubmitted": self.resubmitted,
                "ewma_task_seconds": ewma,
            }
        out.update(self.pool.stats())
        return out

    # -- running -------------------------------------------------------
    def run(
        self,
        fn: Callable,
        args_list: Sequence[tuple],
        *,
        timeout: float | None = None,
        on_result: Callable[[TaskOutcome], Any] | None = None,
    ) -> list[TaskOutcome]:
        """Run ``fn(*args)`` for every tuple; return ordered outcomes.

        ``on_result(outcome)`` is called once per task in **completion
        order** (from scheduler dispatch threads, serialized by an
        internal lock — callbacks may touch shared state without their
        own locking, but should stay quick).  ``outcome.index`` is the
        submission index.  ``timeout`` is per task; a timed-out task's
        worker is killed and the rest of its chunk resubmitted.
        """
        args_list = list(args_list)
        n = len(args_list)
        results: list[TaskOutcome | None] = [None] * n
        if n == 0:
            return []

        work: deque[int] = deque(range(n))
        state_lock = threading.Lock()
        callback_lock = threading.Lock()
        failure: list[BaseException] = []

        def _record(indices: list[int], chunk_pos: int,
                    outcome: TaskOutcome) -> None:
            i = indices[chunk_pos]
            final = TaskOutcome(i, outcome.ok, outcome.value, outcome.error,
                                outcome.timed_out, outcome.crashed,
                                outcome.elapsed)
            with callback_lock:
                results[i] = final
                self._observe(outcome.elapsed)
                with self._lock:
                    self.tasks_done += 1
                if on_result is not None:
                    on_result(final)

        def _next_chunk() -> list[int]:
            with state_lock:
                if not work or failure:
                    return []
                size = self.chunk_size()
                # Near the tail, shrink chunks so the last tasks spread
                # across all workers instead of queueing behind one.
                remaining = len(work)
                size = min(size, max(1, remaining // self.pool.jobs or 1))
                return [work.popleft() for _ in range(min(size, remaining))]

        def _requeue(indices: list[int], pending: Sequence[int]) -> None:
            with state_lock:
                # Front of the queue: survivors keep their place in line.
                for chunk_pos in reversed(pending):
                    work.appendleft(indices[chunk_pos])
                with self._lock:
                    self.resubmitted += len(pending)

        def _dispatch_loop() -> None:
            while True:
                indices = _next_chunk()
                if not indices:
                    return
                try:
                    chunk = self.pool.submit_chunk(
                        fn,
                        [args_list[i] for i in indices],
                        timeout=timeout,
                        on_item=lambda o, ind=indices: _record(
                            ind, o.index, o
                        ),
                    )
                    with self._lock:
                        self.chunks_dispatched += 1
                except BaseException as exc:  # noqa: BLE001 — re-raised by run()
                    with state_lock:
                        failure.append(exc)
                    return
                if chunk.pending:
                    _requeue(indices, chunk.pending)

        jobs = min(self.pool.jobs, n)
        threads = [
            threading.Thread(target=_dispatch_loop, daemon=True)
            for _ in range(jobs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if failure:
            raise failure[0]
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]


def map_many(
    fn: Callable,
    args_list: Sequence[tuple],
    *,
    jobs: int = 1,
    timeout: float | None = None,
    start_method: str | None = None,
) -> list:
    """``[fn(*a) for a in args_list]``, fanned across ``jobs`` processes.

    With ``jobs=1`` and no timeout this is literally that loop —
    exceptions propagate with their original type, which keeps serial
    experiment drivers byte-identical to their pre-pool behavior.
    Otherwise the tasks run through a :class:`BatchScheduler` on a
    :class:`~repro.perf.WorkerPool` forked for the call: values come back
    in input order, ``timeout`` is a hard per-task limit (the overdue
    task's worker is killed), and the first failed task raises
    :class:`~repro.perf.TaskError`.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    args_list = list(args_list)
    if (jobs == 1 and timeout is None) or not args_list:
        return [fn(*args) for args in args_list]
    with WorkerPool(min(jobs, len(args_list)), start_method) as pool:
        outcomes = BatchScheduler(pool).run(fn, args_list, timeout=timeout)
    return [o.unwrap() for o in outcomes]

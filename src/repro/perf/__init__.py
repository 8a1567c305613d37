"""Performance layer: process-pool batch solving with hard timeouts.

The experiment tables solve dozens of independent LUBT instances; this
package runs them across resident worker *processes* (``--jobs N`` on
the CLI).  The LP backends stop at their own cooperative deadlines
(:mod:`repro.resilience`); the pool adds the hard limit on top — a
timed-out worker here is **killed** and replaced, so a pathological task
cannot leave a runaway process burning CPU.  One dispatch engine serves
every batch: a :class:`WorkerPool` driven by a :class:`BatchScheduler`.

* :func:`map_many` — generic ordered fan-out of a picklable function
  over argument tuples with per-task kill-on-timeout;
* :func:`solve_many` — batch :func:`repro.ebf.solve_lubt` over
  :class:`SolveTask` instances;
* :func:`solve_sweep_sharded` — warm-started bound sweep chunked into
  contiguous shards, one :class:`~repro.ebf.WarmStart` per worker;
* :class:`WorkerPool` — *resident* workers reused across submissions
  (also the :mod:`repro.server` dispatch path) with kill-on-timeout,
  crash replacement and a consecutive-crash cap
  (:class:`PoolCrashLoopError`) so a poison task cannot respawn workers
  forever;
* :class:`SolveJournal` — crash-safe JSONL checkpoint of completed
  solves keyed by canonical instance key; ``solve_many`` /
  ``solve_sweep_sharded`` take ``journal=`` to resume a killed batch;
* :class:`BatchScheduler` — chunked dispatch over a resident pool with
  EWMA-tuned chunk sizes and completion-ordered result streaming;
* :func:`run_cts` — chip-scale multi-net clock-tree flow: a placement's
  clock nets solved as one batch through the scheduler;
* :class:`TaskOutcome` — per-task result/error/timeout/crash record.

Serial (``jobs=1``, no timeout) execution runs inline in the parent
process and is bit-for-bit identical to calling the function in a loop;
parallel runs execute the same code in workers, so tables rendered from
either path match exactly.
"""

from repro.perf.pool import (
    ChunkResult,
    PoolCrashLoopError,
    TaskError,
    TaskOutcome,
    WorkerPool,
)
from repro.perf.scheduler import (
    DEFAULT_CHUNK_SECONDS,
    DEFAULT_MAX_CHUNK,
    BatchScheduler,
    map_many,
)
from repro.perf.journal import (
    JournalError,
    SolveJournal,
    solution_from_record,
    solution_to_record,
)
from repro.perf.batch import (
    SolveTask,
    solve_many,
    solve_sweep_sharded,
    sweep_chunks,
)
from repro.perf.cts import (
    CtsNetResult,
    CtsReport,
    cts_tasks,
    run_cts,
)

__all__ = [
    "BatchScheduler",
    "ChunkResult",
    "CtsNetResult",
    "CtsReport",
    "cts_tasks",
    "run_cts",
    "DEFAULT_CHUNK_SECONDS",
    "DEFAULT_MAX_CHUNK",
    "JournalError",
    "PoolCrashLoopError",
    "SolveJournal",
    "TaskError",
    "TaskOutcome",
    "WorkerPool",
    "map_many",
    "SolveTask",
    "solution_from_record",
    "solution_to_record",
    "solve_many",
    "solve_sweep_sharded",
    "sweep_chunks",
]

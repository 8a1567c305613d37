"""Crash-safe checkpoint journal for batch solves.

A chip-scale run pushes 10k+ LUBT solves through one command; a power
cut, OOM kill, or ``kill -9`` at solve 9,741 must not cost the first
9,740.  A :class:`SolveJournal` is an append-only JSONL file: every
completed solve becomes one line keyed by the canonical instance key
(:func:`repro.server.keys.instance_key` — topology hash + quantized
bounds + options), flushed and ``fsync``'d before the batch driver moves
on.  On restart, :func:`~repro.perf.solve_many` and
:func:`~repro.perf.solve_sweep_sharded` load the journal, replay every
completed instance without re-solving it, and solve only the remainder.

Durability and resume semantics:

* Each record is self-contained on one line, written with ``flush`` +
  ``os.fsync`` — a crash can lose at most the line being written.
* :meth:`SolveJournal.load` tolerates exactly that: a torn/truncated
  *final* line is discarded; corruption anywhere earlier raises
  :class:`JournalError` (that file did not come from a crash mid-append,
  and silently skipping records would un-checkpoint completed work).
* Replayed solutions carry the journaled edge lengths, cost, delays,
  and stats bit-for-bit.  Process-local extras that do not survive
  JSON — ``lp``/``lp_result`` handles, ``solve_reports``, ``weights``,
  ``diagnosis`` — come back as ``None``/empty; experiment tables never
  read those, which is why a killed-and-resumed run reproduces an
  uninterrupted run's tables byte for byte (costs are reported through
  :func:`repro.ebf.canonical_cost`, invariant to warm-start chunking).
* ``replayed`` / ``appended`` counters say how much work the journal
  saved vs. performed — the kill-resume tests assert on them.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Iterator, Mapping

import numpy as np

#: Journal line format version.
JOURNAL_VERSION = 1


class JournalError(RuntimeError):
    """The journal file is unreadable or corrupt beyond a torn tail."""


def solution_to_record(sol: Any) -> dict:
    """The JSON-able payload of one :class:`~repro.ebf.LubtSolution`.

    Stores exactly what experiment tables and batch callers consume:
    edge lengths, cost, delays, and the full :class:`~repro.ebf.SolveStats`.
    The topology and bounds are *not* stored — the instance key already
    pins them, and the resuming caller supplies the same objects.  The
    solve server builds its reply payload from the same record.
    """
    return {
        "edge_lengths": [float(v) for v in sol.edge_lengths],
        "cost": float(sol.cost),
        "delays": [float(v) for v in sol.delays],
        "stats": dataclasses.asdict(sol.stats),
    }


def solution_from_record(record: Mapping[str, Any], topo: Any, bounds: Any):
    """Rebuild a :class:`~repro.ebf.LubtSolution` from a journal record.

    ``topo``/``bounds`` come from the caller (the key proved they match).
    Stats keys :class:`~repro.ebf.SolveStats` no longer has are ignored,
    so journals written by older versions still resume.
    """
    from repro.ebf.solver import LubtSolution, SolveStats

    known = {f.name for f in dataclasses.fields(SolveStats)}
    stats = SolveStats(
        **{k: v for k, v in record["stats"].items() if k in known}
    )
    return LubtSolution(
        topo,
        bounds,
        np.asarray(record["edge_lengths"], dtype=float),
        float(record["cost"]),
        np.asarray(record["delays"], dtype=float),
        stats,
    )


class SolveJournal:
    """Append-only JSONL checkpoint file, one completed solve per line.

    Line format::

        {"v": 1, "key": "<64-hex instance key>", "result": {...}}

    Usable as a context manager; :meth:`close` fsyncs and releases the
    file handle.  Not safe for concurrent writers — one journal belongs
    to one batch driver process (workers return results to the parent,
    and only the parent appends).
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._fh = None
        #: Solves served from the journal instead of being re-run.
        self.replayed = 0
        #: Records written by this process.
        self.appended = 0

    # -- reading -------------------------------------------------------
    def _iter_lines(self) -> Iterator[tuple[int, str, bool]]:
        """Yield ``(lineno, line, is_last)`` for every non-empty line."""
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return
        lines = raw.split("\n")
        numbered = [
            (i + 1, line) for i, line in enumerate(lines) if line.strip()
        ]
        for pos, (lineno, line) in enumerate(numbered):
            yield lineno, line, pos == len(numbered) - 1

    def load(self) -> dict[str, dict]:
        """``{instance_key: result_record}`` for every completed solve.

        A later record for the same key wins (harmless — identical keys
        mean indistinguishable instances).  A torn final line (the crash
        artifact the journal exists for) is dropped; any earlier
        malformed line raises :class:`JournalError`.
        """
        done: dict[str, dict] = {}
        for lineno, line, is_last in self._iter_lines():
            try:
                doc = json.loads(line)
                if doc.get("v") != JOURNAL_VERSION:
                    raise ValueError(
                        f"unsupported journal version {doc.get('v')!r}"
                    )
                key, result = doc["key"], doc["result"]
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                if is_last:
                    break  # torn tail from a crash mid-append
                raise JournalError(
                    f"{self.path}:{lineno}: corrupt journal line "
                    f"({type(exc).__name__}: {exc})"
                ) from exc
            if not isinstance(key, str) or not isinstance(result, dict):
                if is_last:
                    break
                raise JournalError(
                    f"{self.path}:{lineno}: corrupt journal line "
                    f"(bad key/result types)"
                )
            done[key] = result
        return done

    # -- writing -------------------------------------------------------
    def append(self, key: str, result: Mapping[str, Any]) -> None:
        """Durably record one completed solve (flush + fsync)."""
        if self._fh is None:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        line = json.dumps(
            {"v": JOURNAL_VERSION, "key": key, "result": dict(result)},
            separators=(",", ":"),
        )
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.appended += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SolveJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

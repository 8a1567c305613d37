"""Cross-request WarmStart store, keyed by topology structural hash.

PR 5's :class:`repro.ebf.WarmStart` makes a *sweep* fast by carrying the
lazy loop's active Steiner rows from solve to solve.  The store lifts
that to the server's lifetime: every request that solves a topology
deposits its discovered rows under the topology's structural hash, and
every later request on the same structure — from any client, in any
connection — re-seeds from the accumulated set.  Soundness is inherited
from the sweep contract (a Steiner row is a fact about the topology,
never about the bounds), and the hash-rekeyed ``WarmStart`` refuses rows
whose key doesn't match the topology it is handed.
"""

from __future__ import annotations

import threading
from typing import Iterable

from repro.ebf.sweep import WarmStart

Pair = tuple[int, int, int]


class WarmStore:
    """A locked, bounded map from topology hash to the
    :class:`~repro.ebf.WarmStart` accumulating that topology's rows."""

    def __init__(self, max_topologies: int = 512):
        if max_topologies < 1:
            raise ValueError("max_topologies must be >= 1")
        self._max = max_topologies
        self._warm: dict[str, WarmStart] = {}
        self._lock = threading.Lock()
        self.absorbed = 0

    def pairs(self, key: str) -> list[Pair]:
        """A snapshot of the carried rows for ``key`` (possibly empty)."""
        with self._lock:
            ws = self._warm.get(key)
            return [] if ws is None else list(ws.pairs)

    def absorb(self, key: str, pairs: Iterable[Pair]) -> int:
        """Merge rows a solve discovered (deduped by
        :meth:`WarmStart.merge`, so replayed rows are free); returns the
        fresh-row count."""
        with self._lock:
            ws = self._warm.get(key)
            if ws is None:
                # Bound total memory: drop the whole store rather than
                # track per-topology recency — warm rows are a pure
                # optimization, rebuilding them costs one cold solve.
                if len(self._warm) >= self._max:
                    self._warm.clear()
                ws = self._warm[key] = WarmStart(key=key)
            fresh = ws.merge(pairs)
            self.absorbed += fresh
        return fresh

    def rows(self, key: str) -> int:
        with self._lock:
            ws = self._warm.get(key)
            return 0 if ws is None else len(ws.pairs)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "topologies": len(self._warm),
                "total_rows": sum(len(w.pairs) for w in self._warm.values()),
                "absorbed": self.absorbed,
            }

"""Shared pieces of the benchmark: time boxing, phase results, process
CPU and memory readings (Linux ``/proc``)."""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

_TICK = os.sysconf("SC_CLK_TCK")


@dataclass
class Context:
    """One benchmark run: its seed, private work directory, the
    benchmark's own directory and the environment for subprocesses."""

    seed: int
    work: Path
    bench: Path
    env: dict[str, str]
    _files: int = 0

    def subseed(self, *key: int) -> int:
        """A 32-bit seed derived from the run seed and ``key``."""
        import numpy as np

        return int(np.random.SeedSequence([self.seed, *key]).generate_state(1)[0])

    def fresh_path(self, stem: str) -> Path:
        """A new path inside the work directory."""
        self._files += 1
        return self.work / f"{stem}-{self._files}"

    def setup_probe(self, jobs: int) -> float:
        """Set-up seconds measured by ``setup_probe.py`` in a fresh
        interpreter."""
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, str(self.bench / "setup_probe.py"), str(jobs)],
            cwd=self.work, env=self.env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        return float(out.stdout.split()[-1])


class Timebox:
    """Decides whether another op fits into ``seconds``: one more starts
    only while the projected end (elapsed + mean op time) stays inside
    the box, so a run measures close to ``seconds`` without cutting an
    op short.  The first op always runs."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = time.perf_counter()
        self.done = 0

    def more(self) -> bool:
        if not self.done:
            return True
        elapsed = time.perf_counter() - self.start
        return elapsed * (self.done + 1) / self.done <= self.seconds

    def tick(self) -> None:
        self.done += 1


@dataclass
class Slice:
    """One slice of a timed phase: a ``cts-leaf`` batch, a ``big-net``
    net or a ``server-mixed`` time window."""

    ops: int
    wall_s: float
    cpu_s: float


@dataclass
class Phase:
    """What one timed phase measured.  ``latencies_s`` holds one entry
    per completed op, grouped so that each group is large enough for a
    p99 (or is the whole phase); ``failures`` maps op ids to error text;
    ``records`` is whatever the workload's correctness check needs."""

    wall_s: float
    t0_ns: int
    t1_ns: int
    attempted: int
    latencies_s: list[list[float]]
    slices: list[Slice]
    rss_mb: float
    failures: dict[Any, str] = field(default_factory=dict)
    records: Any = None
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return sum(map(len, self.latencies_s))


def self_cpu_s() -> float:
    """User + system CPU of this process (all threads)."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def proc_cpu_s(pid: int) -> float:
    """User + system CPU of a live process, from ``/proc/<pid>/stat``."""
    text = Path(f"/proc/{pid}/stat").read_text()
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_children(pid: int) -> list[int]:
    """Direct children of a live process."""
    out: list[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        out += [int(c) for c in (task / "children").read_text().split()]
    return out


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")

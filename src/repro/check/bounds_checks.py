"""Delay-bound checks (``BD0xx``) against Definition 2.1's validity rules.

:class:`~repro.ebf.bounds.DelayBounds` already rejects the worst inputs
at construction time, but the checker cannot assume a well-behaved
constructor ran: fault injection, serialization, and hand-built objects
all reach the solver too.  Every rule is therefore re-verified here, and
the geometric floor (Eq. 3/4) — which the constructor *cannot* check
because it needs the topology — lives here as ``BD005``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.check.diagnostics import Diagnostic
from repro.ebf.bounds import FLOOR_TOL, DelayBounds, upper_floor
from repro.topology.tree import Topology


def check_bounds(
    bounds: DelayBounds,
    topo: Topology | None = None,
    *,
    geometric_floor: bool = True,
) -> list[Diagnostic]:
    """Run every ``BD0xx`` check; ``topo`` enables the count and floor
    checks.  ``geometric_floor=False`` skips ``BD005`` (callers probing
    deliberately infeasible bounds pass ``check_bounds=False`` to the
    solver, and the pre-check honors that)."""
    out: list[Diagnostic] = []
    lo = np.asarray(bounds.lower, dtype=float)
    hi = np.asarray(bounds.upper, dtype=float)

    if topo is not None and len(lo) != topo.num_sinks:
        out.append(
            Diagnostic(
                "BD004",
                f"{len(lo)} bound pairs for {topo.num_sinks} sinks",
                locus=f"{len(lo)} pairs",
            )
        )
        topo = None  # per-sink loci below would be misaligned

    for idx in range(len(lo)):
        sink = idx + 1
        l_i, u_i = float(lo[idx]), float(hi[idx])
        locus = f"sink {sink}"
        if math.isnan(l_i) or math.isnan(u_i) or math.isinf(l_i):
            out.append(
                Diagnostic(
                    "BD001",
                    f"bounds [{l_i!r}, {u_i!r}] are not usable",
                    locus=locus,
                )
            )
            continue
        if l_i > u_i:
            out.append(
                Diagnostic(
                    "BD002",
                    f"lower {l_i:g} exceeds upper {u_i:g}",
                    locus=locus,
                )
            )
        if l_i < 0:
            out.append(
                Diagnostic(
                    "BD003", f"lower bound {l_i:g} is negative", locus=locus
                )
            )
        if l_i == u_i and math.isfinite(u_i):
            out.append(
                Diagnostic(
                    "BD007",
                    f"exact zero-skew window at {u_i:g}",
                    locus=locus,
                )
            )

    if topo is not None and geometric_floor:
        out.extend(_check_floor(lo, hi, topo))
    return out


def _check_floor(
    lo: np.ndarray, hi: np.ndarray, topo: Topology
) -> list[Diagnostic]:
    src = topo.source_location
    if src is not None and not (math.isfinite(src.x) and math.isfinite(src.y)):
        return []  # TP008 territory; a floor is meaningless here
    need = upper_floor(topo)
    # Sinks with non-finite coordinates have no floor to check (NaN
    # uppers compare False and are BD001's business).
    short = np.isfinite(need) & (hi < need - FLOOR_TOL)
    out: list[Diagnostic] = []
    for idx in np.flatnonzero(short):
        u_i, floor = float(hi[idx]), float(need[idx])
        what = (
            f"dist(source, sink) = {floor:g} (Eq. 3)"
            if src is not None
            else f"radius {floor:g} (Eq. 4)"
        )
        out.append(
            Diagnostic(
                "BD005",
                f"upper bound {u_i:g} < {what}",
                locus=f"sink {int(idx) + 1}",
            )
        )
    return out

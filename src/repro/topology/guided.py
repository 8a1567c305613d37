"""Bounds-guided topology generation — the paper's Section 9 future work.

The paper closes by noting its topology generator "uses the amount of
skew to guide the topology generation, rather than the explicit
lower/upper bounds", and calls for one "guided by both the lower and the
upper bounds".  This module implements that: a nearest-neighbor merge
whose pair-selection cost blends geometric distance with *estimated
balance mismatch*, weighted by how tight the requested delay window is.

Rationale: with a tight window (zero-skew-like), unbalanced merges force
wire elongation later, so penalizing height mismatch up front produces
cheaper LUBTs; with a loose window the mismatch never costs anything and
pure nearest-neighbor merging is best.  The blend weight is

    lam = clamp(1 - (u - l) / radius, 0, 1)

and the merge cost between clusters ``a``/``b`` is

    dist(a, b) + lam * |h_a - h_b|

where ``h`` is each cluster's estimated pathlength height (half its
running merge "diameter" — exact for single sinks, a good proxy after
merges).  ``lam = 0`` reproduces :func:`nearest_neighbor_topology`
exactly; ``lam = 1`` is a balance-first generator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.geometry import Point, manhattan_diameter, manhattan_radius_from
from repro.topology.builders import agglomerative_merge_order, binary_merge_tree
from repro.topology.tree import Topology

if TYPE_CHECKING:  # avoid a circular import with repro.ebf at runtime
    from repro.ebf.bounds import DelayBounds


def bounds_guided_topology(
    sinks: list[Point],
    bounds: "DelayBounds",
    source: Point | None = None,
) -> Topology:
    """Nearest-neighbor merge steered by the width of the delay window."""
    m = len(sinks)
    if m == 0:
        raise ValueError("cannot build a topology over zero sinks")
    if bounds.num_sinks != m:
        raise ValueError("bounds/sink count mismatch")
    if m == 1:
        return Topology([None, 0], 1, sinks, source)

    if source is not None:
        radius = manhattan_radius_from(source, sinks)
    else:
        radius = manhattan_diameter(sinks) / 2.0
    window = float(np.min(bounds.upper - bounds.lower))
    lam = 1.0 if radius <= 0 else min(1.0, max(0.0, 1.0 - window / radius))
    return _guided_merge(sinks, source, lam)


def balance_aware_topology(
    sinks: list[Point],
    source: Point | None = None,
    balance_weight: float = 1.0,
) -> Topology:
    """The generator with an explicit balance weight (``0`` = pure NN)."""
    if not 0.0 <= balance_weight <= 10.0:
        raise ValueError("balance_weight out of range")
    m = len(sinks)
    if m == 0:
        raise ValueError("cannot build a topology over zero sinks")
    if m == 1:
        return Topology([None, 0], 1, sinks, source)
    return _guided_merge(sinks, source, balance_weight)


def _guided_merge(
    sinks: list[Point], source: Point | None, lam: float
) -> Topology:
    if lam == 0.0:
        # No balance pressure: identical to the plain generator (the
        # representative policy differs, so delegate for exact equality).
        from repro.topology.builders import nearest_neighbor_topology

        return nearest_neighbor_topology(sinks, source)
    merges = _guided_merge_order(sinks, lam)
    topo, _ = binary_merge_tree(sinks, merges, source)
    return topo


def _guided_merge_order(sinks: list[Point], lam: float) -> list[tuple[int, int]]:
    """Merge order under the cost ``dist(a, b) + lam * |h_a - h_b|``, on
    the shared cached-partner loop (O(m) memory)."""
    us = np.array([p.u for p in sinks], dtype=float)
    vs = np.array([p.v for p in sinks], dtype=float)
    heights = np.zeros(len(sinks))

    def cost(rows: int | slice) -> np.ndarray:
        c = np.maximum(np.abs(us[rows, None] - us), np.abs(vs[rows, None] - vs))
        c += lam * np.abs(heights[rows, None] - heights)
        return c

    def merge(a: int, b: int) -> None:
        # Merged representative: the (height-weighted) balance point, and
        # the ZST-merge height estimate.
        d = max(abs(us[a] - us[b]), abs(vs[a] - vs[b]))
        h_a, h_b = heights[a], heights[b]
        if abs(h_a - h_b) <= d:
            t = (d + h_b - h_a) / (2.0 * d) if d > 0 else 0.5
        else:
            t = 0.0 if h_a > h_b else 1.0
        us[a] = us[a] * (1 - t) + us[b] * t
        vs[a] = vs[a] * (1 - t) + vs[b] * t
        heights[a] = max(h_a, h_b, (d + h_a + h_b) / 2.0)

    return agglomerative_merge_order(len(sinks), cost, merge)

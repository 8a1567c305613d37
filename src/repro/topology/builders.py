"""Topology generators.

The paper adopts the topology generator of [9] (Huang/Kahng/Tsao), which is
"based on nearest neighbor merge [5]" (Edahiro) and produces **full binary
trees in which every sink is a leaf**, so Lemma 3.1 guarantees LUBT
feasibility for any valid bounds.  :func:`nearest_neighbor_topology`
implements that merge rule on :func:`agglomerative_merge_order`, a greedy
merge loop that caches each cluster's nearest partner instead of a dense
distance matrix: O(m^2) time and O(m) memory, ties broken by lowest slot
exactly as a first-occurrence ``argmin`` over the matrix would (the
bounds-guided generator shares the loop);
:func:`balanced_bipartition_topology` is a
classic top-down alternative (means-and-medians style) used for ablations.
``star`` and ``chain`` builders construct the degenerate topologies of
Figure 1 used in feasibility tests.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.geometry import Point
from repro.topology.tree import Topology


def topology_from_parents(
    parents: list[int | None],
    sink_locations: list[Point],
    source_location: Point | None = None,
) -> Topology:
    """Build a :class:`Topology` from an explicit parent array.

    Convenience wrapper that infers ``num_sinks`` from the location list.
    """
    return Topology(parents, len(sink_locations), sink_locations, source_location)


def star_topology(
    sinks: list[Point], source: Point | None = None
) -> Topology:
    """Every sink connected directly to the root — no Steiner points."""
    m = len(sinks)
    parents: list[int | None] = [None] + [0] * m
    return Topology(parents, m, sinks, source)


def chain_topology(
    sinks: list[Point], source: Point | None = None
) -> Topology:
    """Root -> s_1 -> s_2 -> ... — the Figure 1(a) shape where interior
    sinks are *not* leaves (and LUBTs may not exist)."""
    m = len(sinks)
    parents: list[int | None] = [None] + [i for i in range(m)]
    return Topology(parents, m, sinks, source)


def nearest_neighbor_topology(
    sinks: list[Point], source: Point | None = None
) -> Topology:
    """Bottom-up nearest-neighbor merge (Edahiro-style, see [5] and [9]).

    Repeatedly merges the two clusters whose representative points are
    closest in Manhattan distance; the merged cluster's representative is
    the midpoint of the two.  Produces a full binary tree with all sinks as
    leaves.  When ``source`` is given, the root node 0 is the source with
    the top merge node as its only child (paper Section 3); otherwise the
    top merge node *is* the root ``s_0`` whose location is free.

    Ties go to the lowest-indexed cluster, then its lowest-indexed
    partner.  O(m^2) time, O(m) memory (about 0.2 s at 2048 sinks and
    0.5 s at 4096 on a 2-vCPU VM), see :func:`agglomerative_merge_order`.
    """
    m = len(sinks)
    if m == 0:
        raise ValueError("cannot build a topology over zero sinks")
    if m == 1:
        return Topology([None, 0], 1, sinks, source)

    merges = _nearest_neighbor_merge_order(sinks)
    topo, _ = binary_merge_tree(sinks, merges, source)
    return topo


def balanced_bipartition_topology(
    sinks: list[Point], source: Point | None = None
) -> Topology:
    """Top-down recursive median bipartition on the wider bbox axis.

    Also yields a full binary tree with all sinks as leaves; used as an
    alternative generator in ablation experiments.
    """
    m = len(sinks)
    if m == 0:
        raise ValueError("cannot build a topology over zero sinks")
    if m == 1:
        return Topology([None, 0], 1, sinks, source)

    # Build merge list bottom-up from a top-down partition: process with an
    # explicit stack, emitting (left_token, right_token) merges postorder.
    xs = np.array([p.x for p in sinks])
    ys = np.array([p.y for p in sinks])

    merges: list[tuple[int, int]] = []
    next_internal = [m]  # internal tokens start at m (leaf tokens are 0..m-1)

    def partition(indices: np.ndarray) -> int:
        """Return the token of the subtree over ``indices`` (iteratively
        unrolled below — this inner function recursion depth is log2(m))."""
        if len(indices) == 1:
            return int(indices[0])
        span_x = xs[indices].max() - xs[indices].min()
        span_y = ys[indices].max() - ys[indices].min()
        key = xs[indices] if span_x >= span_y else ys[indices]
        order = indices[np.argsort(key, kind="stable")]
        half = len(order) // 2
        left = partition(order[:half])
        right = partition(order[half:])
        token = next_internal[0]
        next_internal[0] += 1
        merges.append((left, right))
        return token

    partition(np.arange(m))
    topo, _ = binary_merge_tree(sinks, merges, source)
    return topo


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------
def _nearest_neighbor_merge_order(sinks: list[Point]) -> list[tuple[int, int]]:
    """Agglomerative merge order over sink tokens ``0..m-1``; merged
    clusters receive tokens ``m, m+1, ...`` in creation order.  A merged
    cluster's representative is the midpoint; distances are Chebyshev in
    ``(u, v)``, i.e. Manhattan in ``(x, y)``.
    """
    us = np.array([p.u for p in sinks], dtype=float)
    vs = np.array([p.v for p in sinks], dtype=float)

    def cost(rows: int | slice) -> np.ndarray:
        return np.maximum(np.abs(us[rows, None] - us), np.abs(vs[rows, None] - vs))

    def merge(a: int, b: int) -> None:
        us[a] = (us[a] + us[b]) / 2.0
        vs[a] = (vs[a] + vs[b]) / 2.0

    return agglomerative_merge_order(len(sinks), cost, merge)


#: Most pair costs held at once by :func:`agglomerative_merge_order`
#: (512 KB of float64): the size of one block of the partner-cache
#: build, and the largest whole cost matrix the small-m loop keeps.
_BLOCK = 1 << 16


def agglomerative_merge_order(
    m: int,
    cost: Callable[[int | slice], np.ndarray],
    merge: Callable[[int, int], None],
) -> list[tuple[int, int]]:
    """Greedy bottom-up merge order over ``m`` slots.

    ``cost(rows)`` returns the pair costs from slot(s) ``rows`` (an int
    or a slice) to every slot, shape ``(m,)`` or ``(len, m)``; it must be
    symmetric and depend only on the two slots' current state.
    ``merge(a, b)`` folds slot ``b``'s cluster into slot ``a``, which then
    holds the merged cluster.  Each step merges the cheapest live pair
    ``(a, b)``: least cost, then lowest ``a``, then lowest ``b`` -- the
    first-occurrence order of ``argmin`` over the dense cost matrix, so
    ``a < b`` always; a NaN cost (from a NaN location) counts as least,
    as ``argmin`` takes it.  Tokens as in :func:`binary_merge_tree`.

    For ``m > 256`` no cost matrix is kept: each live slot caches its
    cheapest partner ``nn[i]`` (lowest slot on ties) and that cost
    ``nnd[i]``, built blockwise in O(m) memory.  After a merge one
    vectorized pass prices every row against the moved slot ``a``;
    only rows whose partner was ``a`` or ``b`` and did not move to
    ``a`` are recomputed -- about 1.2 per merge on uniform and placement
    inputs -- so a build is O(m^2) time in O(m) memory (2048 sinks:
    about 0.2 s and a 2 MB peak, against 3.3 s and 96 MB for the dense
    loop).  Smaller inputs keep the whole matrix (at most :data:`_BLOCK`
    costs), whose per-merge update takes fewer numpy calls: half the
    time of the cached loop at 6 sinks.
    """
    merges: list[tuple[int, int]] = []
    if m < 2:
        return merges
    token_of_slot = list(range(m))
    dead = np.zeros(m, dtype=bool)

    if m * m <= _BLOCK:
        dist = cost(slice(0, m))
        np.fill_diagonal(dist, np.inf)
        for token in range(m, 2 * m - 1):
            a, b = divmod(int(dist.argmin()), m)
            merges.append((token_of_slot[a], token_of_slot[b]))
            token_of_slot[a] = token
            merge(a, b)
            dead[b] = True
            dist[b, :] = np.inf
            dist[:, b] = np.inf
            row = cost(a)
            row[dead] = np.inf
            row[a] = np.inf
            dist[a, :] = row
            dist[:, a] = row
        return merges

    def priced(rows: int | slice) -> np.ndarray:
        # ``argmin`` over a matrix takes its first NaN as the minimum
        # (a NaN sink location); -inf keeps that order under ``<``/``==``.
        c = cost(rows)
        c[np.isnan(c)] = -np.inf
        return c

    def refresh(i: int) -> np.ndarray:
        """Recompute slot ``i``'s partner from scratch; returns its row."""
        row = priced(i)
        row[dead] = np.inf
        row[i] = np.inf
        nn[i] = j = int(row.argmin())
        nnd[i] = row[j]
        return row

    nn = np.empty(m, dtype=np.intp)
    nnd = np.empty(m)
    step = max(1, _BLOCK // m)
    for lo in range(0, m, step):
        block = priced(slice(lo, min(m, lo + step)))
        k = np.arange(len(block))
        block[k, lo + k] = np.inf
        nn[lo : lo + step] = part = block.argmin(axis=1)
        nnd[lo : lo + step] = block[k, part]

    for token in range(m, 2 * m - 1):
        a = int(nnd.argmin())
        b = int(nn[a])
        merges.append((token_of_slot[a], token_of_slot[b]))
        token_of_slot[a] = token
        merge(a, b)
        dead[b] = True
        nnd[b] = np.inf
        nn[b] = -1  # never a partner, never "closer" below
        d = refresh(a)
        # A row takes ``a`` on a strictly smaller cost, or an equal one when
        # ``a`` is the lower slot (or already its partner).  Rows that
        # pointed at ``a`` or ``b`` and do not take ``a`` lost their
        # cheapest partner, so they are recomputed.
        pointed = (nn == a) | (nn == b)
        closer = (d < nnd) | ((d == nnd) & (nn >= a))
        np.putmask(nn, closer, a)
        np.putmask(nnd, closer, d)
        for i in (pointed & ~closer).nonzero()[0].tolist():
            refresh(i)
    return merges


def binary_merge_tree(
    sinks: list[Point],
    merges: list[tuple[int, int]],
    source: Point | None,
) -> tuple[Topology, dict[int, int]]:
    """Convert a merge sequence over tokens into a paper-numbered Topology.

    Tokens: ``0..m-1`` are sinks in input order; token ``m+k`` is the
    cluster created by ``merges[k]``.  The final merge is the tree top.
    Returns the topology plus the token -> node-id map (used by merge
    algorithms — e.g. the bounded-skew baseline — that must transfer
    per-cluster edge lengths onto the final numbering).
    """
    m = len(sinks)
    n_internal = len(merges)
    top_token = m + n_internal - 1

    # Map tokens to final node ids.  Sinks: token t -> node t+1.  Internal
    # nodes other than the top: Steiner ids m+1.. in creation order.  The
    # top token becomes the root (0) when the source floats, else the last
    # Steiner id with the true source as node 0.
    node_of: dict[int, int] = {t: t + 1 for t in range(m)}
    next_steiner = m + 1
    for k in range(n_internal):
        token = m + k
        if source is None and token == top_token:
            node_of[token] = 0
        else:
            node_of[token] = next_steiner
            next_steiner += 1

    total_nodes = 1 + m + (n_internal if source is not None else n_internal - 1)
    parents: list[int | None] = [None] * total_nodes
    for k, (a, b) in enumerate(merges):
        pa = node_of[m + k]
        parents[node_of[a]] = pa
        parents[node_of[b]] = pa
    if source is not None:
        parents[node_of[top_token]] = 0
    return Topology(parents, m, sinks, source), node_of

"""EBF LP assembly (Section 4.3's "Summary of the Formulation").

Variables are the edge lengths ``e_1 .. e_n`` (variable ``j`` is edge
``j + 1``).  Rows:

* Steiner constraints for a chosen set of sink pairs (all pairs by
  default; the lazy solver passes a growing subset);
* delay range rows per sink: ``l_i <= sum path(s_0, s_i) <= u_i``;
* zero-pinned tie edges from degree-4 splitting.

When the source location is *given*, the effective lower bound of each
delay row is raised to ``max(l_i, dist(s_0, s_i))`` — the path from a fixed
source to a sink can never embed shorter than their Manhattan distance, so
this strengthening is sound and makes Theorem 4.1's embedding guarantee
carry over to the fixed-source case (the source acts as an extra terminal
of every root path).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.ebf.bounds import DelayBounds, source_distances
from repro.ebf.constraints import all_sink_pairs, steiner_row_matrix
from repro.lp import LinearProgram, Sense
from repro.lp.model import collapse_noisy_range
from repro.topology import Topology


def edge_var(edge_id: int) -> int:
    """Column index of edge ``e_i`` (paper numbering) in the EBF LP."""
    if edge_id < 1:
        raise ValueError(f"edge ids start at 1, got {edge_id}")
    return edge_id - 1


def build_ebf_lp(
    topo: Topology,
    bounds: DelayBounds,
    *,
    weights: Sequence[float] | None = None,
    pairs: Sequence[tuple[int, int]] | None = None,
    zero_edges: Iterable[int] = (),
) -> LinearProgram:
    """Build the EBF LP for ``topo`` with the given delay bounds.

    ``weights`` (indexed by node id, entry 0 ignored) give the Section 7
    weighted objective; ``pairs`` restricts the Steiner rows to a subset
    (used by lazy row generation); ``zero_edges`` pins tie edges to zero.

    The model is stamped with its source instance (a
    :class:`~repro.lp.TreeLpMeta`), so ``backend="tree"`` can solve it
    through :func:`build_tree_lp`.
    """
    if bounds.num_sinks != topo.num_sinks:
        raise ValueError("bounds/sink count mismatch")
    w = _edge_weights(topo, weights)

    lp = LinearProgram()
    for i in range(1, topo.num_nodes):
        lp.add_variable(f"e{i}", cost=w[i])
    zero_edges = tuple(zero_edges)
    for i in zero_edges:
        lp.fix_variable(edge_var(i), 0.0)

    add_delay_rows(lp, topo, bounds)
    add_steiner_rows(lp, topo, pairs)
    from repro.lp import TreeLpMeta

    lp.tree_meta = TreeLpMeta(
        topo, bounds, weights, zero_edges, covered_rows=lp.num_constraints
    )
    return lp


def _edge_weights(
    topo: Topology, weights: Sequence[float] | None
) -> np.ndarray:
    """Objective weight per edge, indexed by node id (entry 0 unused)."""
    if weights is None:
        return np.ones(topo.num_nodes)
    if len(weights) != topo.num_nodes:
        raise ValueError("weights must be indexed by node id (len = num_nodes)")
    w = np.asarray(weights, dtype=float)
    negative = np.flatnonzero(w[1:] < 0)
    if negative.size:
        raise ValueError(f"negative edge weight for e_{int(negative[0]) + 1}")
    return w


def delay_windows(
    topo: Topology, bounds: DelayBounds
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Effective delay window per sink (index ``i - 1`` is sink ``i``):
    ``(lower, upper, impossible)``.

    With a given source the lower bound is raised to the Manhattan floor
    ``dist(s_0, s_i)`` (module docstring).  A window inverted by more than
    ``1e-12`` is *impossible* — bounds violating Eq. 3 — and the builders
    encode it as an unsatisfiable ``delay{i}.impossible`` row rather than
    a silent wrong answer; one inverted by float noise collapses to its
    midpoint (``BD006``).
    """
    lower = np.array(bounds.lower, dtype=float)
    upper = np.array(bounds.upper, dtype=float)
    if topo.source_location is not None:
        lower = np.maximum(lower, source_distances(topo))
    impossible = lower > upper + 1e-12
    for k in np.flatnonzero((lower > upper) & ~impossible):
        lower[k] = upper[k] = collapse_noisy_range(
            float(lower[k]), float(upper[k]), f"delay{k + 1}"
        )
    return lower, upper, impossible


def _impossible_rows(lp: LinearProgram, impossible: np.ndarray) -> None:
    for k in np.flatnonzero(impossible):
        lp.add_constraint({}, Sense.GE, 1.0, name=f"delay{k + 1}.impossible")


def add_delay_rows(
    lp: LinearProgram, topo: Topology, bounds: DelayBounds
) -> None:
    """One range row per sink (Equation 8) over the windows of
    :func:`delay_windows`."""
    lower, upper, impossible = delay_windows(topo, bounds)
    _impossible_rows(lp, impossible)
    for i in topo.sink_ids():
        if impossible[i - 1]:
            continue
        coeffs = {edge_var(k): 1.0 for k in topo.path_to_root(i)}
        lp.add_range_constraint(
            coeffs, float(lower[i - 1]), float(upper[i - 1]), name=f"delay{i}"
        )


def add_steiner_rows(
    lp: LinearProgram,
    topo: Topology,
    pairs: Sequence[tuple] | None,
) -> list[int]:
    """Append Steiner rows for ``pairs`` (all sink pairs when ``None``);
    returns the new row indices.

    ``pairs`` entries are ``(i, j)`` or ``(i, j, lca)``.  Rows are built
    in one vectorized pass (:func:`steiner_row_matrix`) and appended as a
    CSR block — no per-pair path walk or per-row tuple construction.
    """
    if pairs is None:
        pairs = list(all_sink_pairs(topo))
    if not pairs:
        return []
    block, dist = steiner_row_matrix(topo, pairs)
    # Node-id columns -> LP columns (edge e_i lives in column i - 1).
    sub = block[:, 1:]
    names = [f"steiner{p[0]},{p[1]}" for p in pairs]
    rows = list(
        lp.add_rows(sub.data, sub.indices, sub.indptr, Sense.GE, dist, names)
    )
    # Every Steiner row is a member of the family the collapsed tree
    # model implies, so appending one keeps the model tree-solvable:
    # advance the coverage watermark.
    if lp.tree_meta is not None:
        lp.tree_meta.covered_rows = lp.num_constraints
    return rows


def build_tree_lp(
    topo: Topology,
    bounds: DelayBounds,
    *,
    weights: Sequence[float] | None = None,
    zero_edges: Iterable[int] = (),
) -> LinearProgram:
    """The EBF LP with its whole Steiner family collapsed to O(n) rows.

    **Node potentials.**  Column ``v - 1`` is the root-to-node delay
    ``d_v`` (``d_0 = 0`` is a constant, so root entries drop out of every
    row) and ``e_v = d_v - d_parent(v)``.  Edge non-negativity becomes
    one 2-nnz monotonicity row per non-root edge (root edges are covered
    by ``d_v >= 0``); a sink's delay window becomes the variable bound
    ``lo_i <= d_i <= hi_i``; a pinned tie edge is ``d_v <= d_parent(v)``.

    **Min-chain collapse.**  The Steiner row of a sink pair ``(i, j)``
    with LCA ``k`` reads ``(d_i - d_k) + (d_j - d_k) >= dist(i, j)``,
    where ``dist`` is the Chebyshev distance of the rotated coordinates
    ``(u, v) = (x + y, x - y)``.  Every sink-bearing node ``k`` gets four
    auxiliary columns bounded above by subtree minima,

        A_k <= min over sinks i under k of (d_i - su_i)
        B_k <= min (d_i + su_i),  C_k <= min (d_i - sv_i),  D_k <= min (d_i + sv_i)

    as telescoped 2-nnz chain rows (``A_k <= A_c`` per sink-bearing
    child ``c``; ``A_k <= d_k - su_k`` when ``k`` is itself a sink), plus
    two 3-nnz geometry rows at every node that is the LCA of some pair:

        A_k + B_k >= 2 d_k        C_k + D_k >= 2 d_k

    The maximal feasible ``A_k`` *is* the subtree minimum, so the
    geometry rows hold iff every pair under ``k`` satisfies its Steiner
    row (``max(|du|, |dv|)`` splits into the two one-sided sums); pair
    rows at higher ancestors follow from monotonicity.  The model has
    O(n) rows and nonzeros whatever the pair count, and its optimum is
    the EBF optimum (Theorem 4.2).  :func:`edges_from_potentials` maps a
    solution back to edge lengths.
    """
    if bounds.num_sinks != topo.num_sinks:
        raise ValueError("bounds/sink count mismatch")
    w = _edge_weights(topo, weights)
    n, m = topo.num_nodes, topo.num_sinks
    parents = topo.parent_array()
    zero = np.array(tuple(zero_edges), dtype=np.int64)

    lower, upper, impossible = delay_windows(topo, bounds)
    # Path sums of non-negative edges are non-negative.
    lower = np.maximum(lower, 0.0)
    # An empty window is left unbounded: its impossible row decides.
    upper = np.where(impossible | (lower > upper), np.inf, upper)

    lp = LinearProgram()
    _impossible_rows(lp, impossible)
    # Objective: sum_v w_v (d_v - d_parent) = sum_v (w_v - children's w) d_v.
    child_w = np.zeros(n)
    np.add.at(child_w, parents[1:], w[1:])
    cost = w - child_w
    for v in range(1, n):
        lo, hi = (lower[v - 1], upper[v - 1]) if v <= m else (0.0, np.inf)
        lp.add_variable(f"d{v}", cost=cost[v], lb=lo, ub=hi)

    # Row blocks: (columns (k, width), coefficients (width,), rhs (k,)),
    # all ``<=``; column -1 is the constant d_0 and is dropped.
    blocks = []
    inner = np.flatnonzero(parents[1:]) + 1
    blocks.append((np.stack([parents[inner], inner], 1) - 1, (1.0, -1.0), None))
    blocks.append((np.stack([zero, parents[zero]], 1) - 1, (1.0, -1.0), None))
    nsink = np.fromiter(map(len, topo.sinks_under()), dtype=np.int64, count=n)
    bearing = np.flatnonzero(nsink) if m >= 2 else np.empty(0, np.int64)
    if bearing.size:
        aux = np.full(n, -1, dtype=np.int64)
        aux[bearing] = lp.num_variables + 4 * np.arange(bearing.size)
        for k in bearing:
            for tag in "ABCD":
                lp.add_variable(f"{tag}{k}", lb=-np.inf)
        quad = np.arange(4)
        # Chain rows aux[parent(c)] <= aux[c] (a bearing node's parent
        # is bearing), four copies.
        child = bearing[bearing != 0]
        chain = np.stack(
            [
                (aux[parents[child]][:, None] + quad).ravel(),
                (aux[child][:, None] + quad).ravel(),
            ],
            1,
        )
        blocks.append((chain, (1.0, -1.0), None))
        # Self rows A_i <= d_i - su_i, B_i <= d_i + su_i, C_i <= d_i - sv_i,
        # D_i <= d_i + sv_i at every sink.
        sinks = np.arange(1, m + 1)
        su, sv = topo.sink_uv()
        own = np.stack(
            [(aux[sinks][:, None] + quad).ravel(), np.repeat(sinks - 1, 4)], 1
        )
        rhs = np.stack(
            [-su[sinks], su[sinks], -sv[sinks], sv[sinks]], 1
        ).ravel()
        blocks.append((own, (1.0, -1.0), rhs))
        # Geometry rows 2 d_k - A_k - B_k <= 0, 2 d_k - C_k - D_k <= 0 at
        # every LCA: two sink-bearing children, or a sink with one.
        fanout = np.bincount(parents[child], minlength=n)
        is_sink = (np.arange(n) >= 1) & (np.arange(n) <= m)
        lca = np.flatnonzero((fanout >= 2) | (is_sink & (fanout >= 1)))
        geo = np.stack(
            [lca - 1, aux[lca], aux[lca] + 1, lca - 1, aux[lca] + 2, aux[lca] + 3],
            1,
        ).reshape(-1, 3)
        blocks.append((geo, (2.0, -1.0, -1.0), None))

    data, cols, lens, rhs_parts = [], [], [], []
    for block_cols, coefs, rhs in blocks:
        keep = block_cols >= 0
        data.append(np.broadcast_to(coefs, block_cols.shape)[keep])
        cols.append(block_cols[keep])
        lens.append(keep.sum(axis=1))
        rhs_parts.append(np.zeros(len(block_cols)) if rhs is None else rhs)
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(lens))])
    lp.add_rows(
        np.concatenate(data), np.concatenate(cols), indptr, Sense.LE,
        np.concatenate(rhs_parts),
    )
    return lp


def edges_from_potentials(
    topo: Topology, x: np.ndarray, zero_edges: Iterable[int] = ()
) -> np.ndarray:
    """A :func:`build_tree_lp` solution -> edge lengths indexed by node
    id, pinned tie edges exactly zero."""
    d = np.zeros(topo.num_nodes)
    d[1:] = np.asarray(x, dtype=float)[: topo.num_nodes - 1]
    e = np.maximum(d - d[topo.parent_array()], 0.0)
    e[0] = 0.0
    e[list(zero_edges)] = 0.0
    return e


def expand_edge_vector(topo: Topology, x: np.ndarray) -> np.ndarray:
    """LP solution vector -> edge-length vector indexed by node id."""
    e = np.zeros(topo.num_nodes)
    e[1:] = np.maximum(np.asarray(x, dtype=float), 0.0)
    return e

"""The ``"tree"`` LP backend: an adapter from flat EBF models to the
collapsed node-potential model.

The EBF LP is generic-looking (delay range rows, C(m,2) Steiner rows) but
every row is a path sum over *one fixed topology*.
:func:`repro.ebf.build_tree_lp` writes the same problem over node
potentials with the whole Steiner family collapsed into O(n) min-chain
rows, and one HiGHS solve on it replaces the lazy cutting-plane loop.
``solve_lubt(backend="tree")`` builds that model straight from
``(topology, bounds)``; this module lets the same formulation answer a
*flat* model, which is how the resilient cascade's ``tree`` lane and
cross-checks use it.

A flat model qualifies when :func:`repro.ebf.build_ebf_lp` stamped it
with its source instance (a :class:`TreeLpMeta`) and every row since came
from the tree-aware builders (the ``covered_rows`` watermark).  Any other
model is declined with :class:`BackendCapabilityError`, which the
``"auto"`` dispatch and the resilient cascade both treat as a clean
fall-through to a generic backend.  Elastic infeasibility-diagnosis LPs
carry no stamp, so infeasible instances route through
``diagnose_infeasibility`` exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.lp.model import LinearProgram
from repro.lp.result import BackendCapabilityError, LpResult, LpStatus

if TYPE_CHECKING:
    from repro.ebf.bounds import DelayBounds
    from repro.topology import Topology


@dataclass
class TreeLpMeta:
    """The instance a flat EBF model was built from, stamped by
    ``build_ebf_lp``.

    ``covered_rows`` is a watermark: the number of LP rows produced by
    the tree-aware builders (``add_steiner_rows`` keeps it current).  If
    the model has grown past it, someone appended rows the tree
    formulation does not imply, and :func:`solve_tree` declines the
    model.
    """

    topo: Topology
    bounds: DelayBounds
    weights: Sequence[float] | None = None
    zero_edges: tuple[int, ...] = ()
    covered_rows: int = 0


def solve_tree(lp: LinearProgram, time_limit: float | None = None) -> LpResult:
    """Solve a tree-stamped EBF model via :func:`repro.ebf.build_tree_lp`.

    Raises :class:`BackendCapabilityError` for models without (current)
    tree metadata; returns an :class:`LpResult` in the model's edge
    variable space.  Row duals are not produced (the collapsed model's
    rows do not map 1:1 onto the flat model's).  ``time_limit``
    (seconds) bounds the HiGHS solve, as in
    :func:`~repro.lp.scipy_backend.solve_scipy`.
    """
    meta = lp.tree_meta
    if meta is None:
        raise BackendCapabilityError(
            "tree backend needs tree metadata (models built by "
            "repro.ebf.build_ebf_lp); this model carries none"
        )
    if meta.covered_rows != lp.num_constraints:
        raise BackendCapabilityError(
            f"{lp.num_constraints - meta.covered_rows} row(s) appended "
            "outside the tree-aware builders; the tree backend cannot "
            "prove they are implied — use a generic backend"
        )
    if lp.num_variables != meta.topo.num_edges:
        raise BackendCapabilityError(
            "model variable count does not match the tree's edge count"
        )
    from repro.ebf.formulation import build_tree_lp, edges_from_potentials
    from repro.lp.scipy_backend import solve_scipy

    tree_lp = build_tree_lp(
        meta.topo, meta.bounds, weights=meta.weights, zero_edges=meta.zero_edges
    )
    res = solve_scipy(tree_lp, time_limit=time_limit)
    if res.status is not LpStatus.OPTIMAL or res.x is None:
        return LpResult(
            res.status, None, None, res.iterations, "tree", message=res.message
        )
    x = edges_from_potentials(meta.topo, res.x, meta.zero_edges)[1:]
    return LpResult(
        LpStatus.OPTIMAL,
        x,
        lp.objective_value(x),
        res.iterations,
        "tree",
        message=res.message,
    )

"""Correctness checks on returned trees, run after the timed phase.

Each check looks at a result, not at stored numbers, so it holds for any
seed:

* sink delays recomputed from the edge lengths lie within the bounds
  (tolerance 1e-5) and match the delays the program reported;
* the all-pairs Steiner check (``max_steiner_violation``) is within the
  same tolerance;
* ``embed_tree(verify=True)`` realizes the lengths as a placement;
* the reported cost is the sum of the edge lengths;
* for a seeded sample, :func:`cross_check` re-solves with a second LP
  backend and demands the same canonical cost.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-5
#: Slack below which a Steiner row counts as active for the cross-check.
#: Taking in a few slack rows too only adds valid constraints.
ACTIVE_SLACK = 1e-4


def check_solution(topo, bounds, edge_lengths, delays=None, cost=None) -> str | None:
    """The first problem found with one returned tree, or ``None``."""
    from repro.delay import sink_delays_linear, tree_cost
    from repro.ebf.constraints import max_steiner_violation
    from repro.embedding import embed_tree

    e = np.asarray(edge_lengths, dtype=float)
    own = sink_delays_linear(topo, e)
    if delays is not None and not np.allclose(own, delays, rtol=1e-9, atol=1e-9):
        return "reported delays differ from the edge lengths"
    if not bounds.satisfied_by(own, tol=TOL):
        return "a sink delay lies outside its bounds"
    worst = max_steiner_violation(topo, e)
    if worst > TOL:
        return f"Steiner constraint violated by {worst:g}"
    if cost is not None and abs(tree_cost(topo, e) - cost) > 1e-9 * max(1.0, abs(cost)):
        return "reported cost is not the sum of the edge lengths"
    try:
        embed_tree(topo, e, verify=True)
    except Exception as exc:  # noqa: BLE001 — any failure is a finding
        return f"embedding failed: {type(exc).__name__}: {exc}"
    return None


def cross_check(topo, bounds, edge_lengths, cost, backend: str) -> str | None:
    """Re-solve with a second backend; ``None`` when the costs agree.

    The second backend (``"scipy"`` when the program used the tree
    backend, ``"tree"`` otherwise) solves the flat EBF LP restricted to
    the Steiner rows the returned tree makes active.  By LP duality that
    restriction has the same optimum as the full LP whenever the
    returned tree is optimal, and a lower one when it is not, so equal
    canonical costs certify the program's cost without an O(m^2)-row
    solve.
    """
    from repro.ebf import build_ebf_lp, canonical_cost
    from repro.ebf.constraints import steiner_violations
    from repro.lp import solve_lp

    second = "scipy" if backend == "tree" else "tree"
    e = np.asarray(edge_lengths, dtype=float)
    active = steiner_violations(topo, e, tol=-ACTIVE_SLACK)
    lp = build_ebf_lp(topo, bounds, pairs=[(i, j) for i, j, _ in active])
    result = solve_lp(lp, second).require_optimal()
    if canonical_cost(result.objective) != canonical_cost(cost):
        return (f"{second} backend cost {result.objective!r} differs from "
                f"{backend} cost {cost!r}")
    return None


def sample(rng: np.random.Generator, ids: list, share: float, least: int) -> list:
    """A seeded sample of ``ids``: ``share`` of them, at least ``least``."""
    k = min(len(ids), max(least, int(round(share * len(ids)))))
    picked = rng.choice(len(ids), size=k, replace=False)
    return [ids[i] for i in sorted(picked)]

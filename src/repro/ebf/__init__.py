"""Edge-Based Formulation (EBF) — the paper's core contribution (Sec. 4).

The LUBT problem is solved as a linear program whose variables are the
*edge lengths* of a given topology:

    min   sum_k w_k e_k
    s.t.  sum_{e_k in path(s_i, s_j)} e_k >= dist(s_i, s_j)   (Steiner)
          l_i <= sum_{e_k in path(s_0, s_i)} e_k <= u_i       (delay)

Public entry points:

* :func:`solve_lubt` — LUBT under the linear delay model (LP, optimal);
* :func:`build_ebf_lp` / :func:`build_tree_lp` — the flat EBF LP, and the
  same problem with its Steiner family collapsed to O(n) rows;
* :func:`solve_sweep` / :class:`WarmStart` — warm-started bound sweeps
  on a fixed topology (each solve seeds the next one's lazy loop);
* :func:`solve_zero_skew` — the Section 4.6 zero-skew special case via
  direct bottom-up equations (no optimization);
* :func:`solve_lubt_elmore` — the Section 7 Elmore-delay extension (NLP);
* :class:`DelayBounds` — per-sink bound sets, with the paper's
  radius-normalized convention and the tolerable-skew helper (Section 6).
"""

from repro.ebf.bounds import DelayBounds, BoundsError
from repro.ebf.constraints import (
    steiner_constraint_rows,
    steiner_row_matrix,
    steiner_violations,
    seed_constraint_pairs,
    sink_pair_count,
)
from repro.ebf.formulation import build_ebf_lp, build_tree_lp
from repro.ebf.solver import LubtSolution, solve_lubt
from repro.ebf.sweep import WarmStart, canonical_cost, solve_sweep
from repro.ebf.zero_skew import solve_zero_skew
from repro.ebf.elmore import solve_lubt_elmore, ElmoreSolution

__all__ = [
    "DelayBounds",
    "BoundsError",
    "steiner_constraint_rows",
    "steiner_row_matrix",
    "steiner_violations",
    "seed_constraint_pairs",
    "sink_pair_count",
    "build_ebf_lp",
    "build_tree_lp",
    "LubtSolution",
    "solve_lubt",
    "WarmStart",
    "canonical_cost",
    "solve_sweep",
    "solve_zero_skew",
    "solve_lubt_elmore",
    "ElmoreSolution",
]

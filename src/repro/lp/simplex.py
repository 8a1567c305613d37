"""A from-scratch dense two-phase primal simplex.

This is the self-contained replacement for the paper's LOQO solver.  It is
a textbook tableau implementation (Luenberger [12], Ch. 3) with Bland's
anti-cycling rule, adequate for the small/medium EBF instances used in
tests and ablations; the scipy/HiGHS backend handles paper-scale LPs.

Model handling: general variable bounds are reduced to the non-negative
standard form by the shift ``x = lb + x'`` (fixed variables are substituted
out; finite upper bounds become extra rows).  Equalities and >= rows get
artificial variables; phase 1 minimizes their sum.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.lp.model import LinearProgram, Sense
from repro.lp.result import BackendCapabilityError, LpResult, LpStatus

_TOL = 1e-9
_FEAS_TOL = 1e-7

#: Pivots between two looks at the clock when a ``time_limit`` is set.
_DEADLINE_EVERY = 32

_STATUS_NOTES = {
    LpStatus.ERROR: "simplex hit the iteration limit or a phase-1 failure",
    LpStatus.INFEASIBLE: "phase 1 terminated with positive artificial sum",
    LpStatus.UNBOUNDED: "entering column has no positive ratio",
    LpStatus.TIME_LIMIT: "simplex ran out of its time limit",
}


def solve_simplex(
    lp: LinearProgram,
    max_iterations: int = 200_000,
    time_limit: float | None = None,
) -> LpResult:
    """Solve ``lp`` with the two-phase tableau simplex.

    With ``time_limit`` (seconds) the pivot loop looks at the clock every
    few pivots and returns :attr:`LpStatus.TIME_LIMIT` once it is spent.
    """
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    n = lp.num_variables
    lb = lp.lower_bounds.copy()
    ub = lp.upper_bounds.copy()

    if np.any(~np.isfinite(lb)):
        raise BackendCapabilityError(
            "simplex backend requires finite lower bounds "
            "(standard-form shift x = lb + x'); use the scipy backend"
        )

    fixed = ub - lb <= _TOL
    free_idx = np.flatnonzero(~fixed)
    col_of = {int(j): k for k, j in enumerate(free_idx)}
    n_free = len(free_idx)

    rows: list[tuple[dict[int, float], Sense, float]] = []
    for i in range(lp.num_constraints):
        coeffs, sense, rhs = lp.row(i)
        acc: dict[int, float] = {}
        shift = 0.0
        for j, a in coeffs:
            shift += a * lb[j]
            if not fixed[j]:
                acc[col_of[j]] = acc.get(col_of[j], 0.0) + a
        rows.append((acc, sense, rhs - shift))

    # Finite upper bounds on free variables become <= rows.
    for k, j in enumerate(free_idx):
        if math.isfinite(ub[j]):
            rows.append(({k: 1.0}, Sense.LE, ub[j] - lb[j]))

    cost = np.array([lp.costs[j] for j in free_idx], dtype=float)
    if not lp.minimize:
        cost = -cost

    x_free, status, iters = _two_phase(
        rows, cost, n_free, max_iterations, deadline
    )
    if status is not LpStatus.OPTIMAL:
        return LpResult(
            status, None, None, iters, "simplex",
            message=_STATUS_NOTES.get(status),
        )

    x = lb.copy()
    x[free_idx] += x_free
    obj = lp.objective_value(x)
    return LpResult(LpStatus.OPTIMAL, x, obj, iters, "simplex")


def _two_phase(
    rows: list[tuple[dict[int, float], Sense, float]],
    cost: np.ndarray,
    n: int,
    max_iterations: int,
    deadline: float | None = None,
) -> tuple[np.ndarray, LpStatus, int]:
    """Core: min cost'x s.t. rows, x >= 0."""
    m = len(rows)
    if m == 0:
        # Unconstrained non-negative minimization: x = 0 unless some cost
        # is negative, in which case the LP is unbounded.
        if np.any(cost < -_TOL):
            return np.zeros(n), LpStatus.UNBOUNDED, 0
        return np.zeros(n), LpStatus.OPTIMAL, 0

    # Normalize every row to non-negative rhs, then classify.
    a = np.zeros((m, n))
    b = np.zeros(m)
    senses: list[Sense] = []
    for i, (coeffs, sense, rhs) in enumerate(rows):
        for k, v in coeffs.items():
            a[i, k] = v
        if rhs < 0:
            a[i] = -a[i]
            rhs = -rhs
            sense = {Sense.LE: Sense.GE, Sense.GE: Sense.LE, Sense.EQ: Sense.EQ}[sense]
        b[i] = rhs
        senses.append(sense)

    n_slack = sum(1 for s in senses if s is not Sense.EQ)
    n_art = sum(1 for s in senses if s is not Sense.LE)
    total = n + n_slack + n_art

    tableau = np.zeros((m, total + 1))
    tableau[:, :n] = a
    tableau[:, -1] = b
    basis = np.empty(m, dtype=int)

    s_col = n
    a_col = n + n_slack
    art_cols = []
    for i, sense in enumerate(senses):
        if sense is Sense.LE:
            tableau[i, s_col] = 1.0
            basis[i] = s_col
            s_col += 1
        elif sense is Sense.GE:
            tableau[i, s_col] = -1.0
            s_col += 1
            tableau[i, a_col] = 1.0
            basis[i] = a_col
            art_cols.append(a_col)
            a_col += 1
        else:
            tableau[i, a_col] = 1.0
            basis[i] = a_col
            art_cols.append(a_col)
            a_col += 1

    iters = 0
    if art_cols:
        phase1_cost = np.zeros(total)
        phase1_cost[art_cols] = 1.0
        status, it = _iterate(
            tableau, basis, phase1_cost, max_iterations, deadline
        )
        iters += it
        if status is LpStatus.TIME_LIMIT:
            return np.zeros(n), status, iters
        if status is not LpStatus.OPTIMAL:
            return np.zeros(n), LpStatus.ERROR, iters
        art_set = set(art_cols)
        art_value = sum(
            tableau[i, -1] for i in range(m) if basis[i] in art_set
        )
        if art_value > _FEAS_TOL * (1.0 + abs(b).max()):
            return np.zeros(n), LpStatus.INFEASIBLE, iters
        _drive_out_artificials(tableau, basis, art_set, n + n_slack)
        # Deactivate artificial columns for phase 2.
        tableau[:, n + n_slack : total] = 0.0

    phase2_cost = np.zeros(total)
    phase2_cost[:n] = cost
    status, it = _iterate(tableau, basis, phase2_cost, max_iterations, deadline)
    iters += it
    if status is not LpStatus.OPTIMAL:
        return np.zeros(n), status, iters

    x = np.zeros(total)
    for i in range(m):
        x[basis[i]] = tableau[i, -1]
    return x[:n], LpStatus.OPTIMAL, iters


def _iterate(
    tableau: np.ndarray,
    basis: np.ndarray,
    cost: np.ndarray,
    max_iterations: int,
    deadline: float | None = None,
) -> tuple[LpStatus, int]:
    """Primal simplex iterations with Bland's rule; mutates in place."""
    m, width = tableau.shape
    total = width - 1
    for it in range(max_iterations):
        if (
            deadline is not None
            and it % _DEADLINE_EVERY == 0
            and time.perf_counter() >= deadline
        ):
            return LpStatus.TIME_LIMIT, it
        # Reduced costs: c_j - c_B' B^-1 A_j, computed from the tableau.
        cb = cost[basis]
        reduced = cost[:total] - cb @ tableau[:, :total]
        reduced[basis] = 0.0
        entering_candidates = np.flatnonzero(reduced < -_TOL)
        if entering_candidates.size == 0:
            return LpStatus.OPTIMAL, it
        j = int(entering_candidates[0])  # Bland: smallest index

        col = tableau[:, j]
        positive = col > _TOL
        if not np.any(positive):
            return LpStatus.UNBOUNDED, it
        ratios = np.full(m, np.inf)
        ratios[positive] = tableau[positive, -1] / col[positive]
        best = ratios.min()
        # Bland tie-break: among minimizers, leave the smallest basis var.
        ties = np.flatnonzero(ratios <= best + _TOL)
        r = int(ties[np.argmin(basis[ties])])

        _pivot(tableau, r, j)
        basis[r] = j
    return LpStatus.ERROR, max_iterations


def _pivot(tableau: np.ndarray, r: int, j: int) -> None:
    tableau[r] /= tableau[r, j]
    col = tableau[:, j].copy()
    col[r] = 0.0
    tableau -= np.outer(col, tableau[r])


def _drive_out_artificials(
    tableau: np.ndarray,
    basis: np.ndarray,
    art_cols: set[int],
    n_real: int,
) -> None:
    """Pivot basic artificials (at value ~0) onto any real column."""
    m = tableau.shape[0]
    for i in range(m):
        if basis[i] not in art_cols:
            continue
        row = tableau[i, :n_real]
        nz = np.flatnonzero(np.abs(row) > _TOL)
        if nz.size:
            _pivot(tableau, i, int(nz[0]))
            basis[i] = int(nz[0])
        # else: the row is redundant (all-zero over real vars); the basic
        # artificial stays at zero and never re-enters, which is harmless.

"""scipy (HiGHS) backend for paper-scale LPs."""

from __future__ import annotations

from typing import Any

import numpy as np
from scipy.optimize import linprog

from repro.lp.model import LinearProgram, Sense
from repro.lp.result import LpResult, LpStatus

_STATUS_MAP = {
    0: LpStatus.OPTIMAL,
    1: LpStatus.ERROR,  # iteration limit (or time limit, see highs_status)
    2: LpStatus.INFEASIBLE,
    3: LpStatus.UNBOUNDED,
    4: LpStatus.ERROR,
}


def highs_options(time_limit: float | None) -> dict[str, float] | None:
    """``linprog`` options for a HiGHS run bounded by ``time_limit``
    seconds (``None`` = unbounded, HiGHS defaults untouched)."""
    return None if time_limit is None else {"time_limit": time_limit}


def highs_status(res: Any) -> LpStatus:
    """Map a ``linprog(method="highs")`` result to an :class:`LpStatus`.

    HiGHS reports both limits as status 1; a reached ``time_limit`` is
    told apart by its message and becomes :attr:`LpStatus.TIME_LIMIT`.
    """
    status = _STATUS_MAP.get(int(res.status), LpStatus.ERROR)
    if res.status == 1 and "time limit" in str(res.message).lower():
        return LpStatus.TIME_LIMIT
    return status


def solve_scipy(
    lp: LinearProgram, time_limit: float | None = None
) -> LpResult:
    """Solve with ``scipy.optimize.linprog(method='highs')``.

    ``time_limit`` (seconds) is handed to HiGHS, which stops on its own
    and reports :attr:`LpStatus.TIME_LIMIT`.
    """
    c, a_ub, b_ub, a_eq, b_eq, bounds = lp.to_arrays()
    sign = 1.0 if lp.minimize else -1.0
    res = linprog(
        sign * c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
        options=highs_options(time_limit),
    )
    status = highs_status(res)
    iterations = int(getattr(res, "nit", 0) or 0)
    message = str(getattr(res, "message", "") or "").strip() or None
    if status is not LpStatus.OPTIMAL or res.x is None:
        return LpResult(
            status, None, None, iterations, "scipy-highs", message=message
        )
    duals = _model_row_duals(lp, res, sign)
    return LpResult(
        LpStatus.OPTIMAL,
        res.x,
        lp.objective_value(res.x),
        iterations,
        "scipy-highs",
        duals,
        message=message,
    )


def _model_row_duals(lp: LinearProgram, res: Any, sign: float) -> np.ndarray | None:
    """Map HiGHS marginals back to model rows in their original
    orientation (d objective / d rhs of the row as written)."""
    ineq = getattr(res, "ineqlin", None)
    eq = getattr(res, "eqlin", None)
    try:
        ineq_marg = None if ineq is None else np.asarray(ineq.marginals)
        eq_marg = None if eq is None else np.asarray(eq.marginals)
    except AttributeError:
        return None
    duals = np.zeros(lp.num_constraints)
    ub_pos = 0
    eq_pos = 0
    for i in range(lp.num_constraints):
        sense = lp.row_sense(i)
        if sense is Sense.EQ:
            if eq_marg is None:
                return None
            duals[i] = sign * eq_marg[eq_pos]
            eq_pos += 1
        else:
            if ineq_marg is None:
                return None
            m = sign * ineq_marg[ub_pos]
            # GE rows were negated into <= form; d obj/d b flips sign.
            duals[i] = -m if sense is Sense.GE else m
            ub_pos += 1
    return duals

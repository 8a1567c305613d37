"""The backend fallback chain under injected faults.

Acceptance criterion of the resilience PR: with injected failures on the
first backend (exception, timeout, and NaN-solution faults),
``solve_lp_resilient`` still returns an optimal result via the fallback
backend, and the ``SolveReport`` records every attempt.
"""

import threading
import time

import numpy as np
import pytest

from repro.lp import LinearProgram, LpStatus, Sense
from repro.resilience import (
    AllBackendsFailedError,
    AttemptOutcome,
    SolveReport,
    backend_chain,
    default_solvers,
    faults,
    rescale_lp,
    solve_lp_resilient,
)


def small_lp() -> LinearProgram:
    """min x + y  s.t.  x + y >= 2, y <= 5  -> optimum 2."""
    lp = LinearProgram()
    x = lp.add_variable("x", cost=1.0)
    y = lp.add_variable("y", cost=1.0, ub=5.0)
    lp.add_constraint({x: 1.0, y: 1.0}, Sense.GE, 2.0)
    return lp


def infeasible_lp() -> LinearProgram:
    lp = LinearProgram()
    x = lp.add_variable("x", cost=1.0)
    lp.add_constraint({x: 1.0}, Sense.GE, 2.0)
    lp.add_constraint({x: 1.0}, Sense.LE, 1.0)
    return lp


class TestHappyPath:
    def test_single_attempt_when_first_backend_works(self):
        report = solve_lp_resilient(small_lp())
        assert report.succeeded
        assert report.num_attempts == 1
        assert report.result.objective == pytest.approx(2.0)
        assert report.attempts[0].outcome == AttemptOutcome.OPTIMAL
        assert report.attempts[0].wall_seconds >= 0.0

    def test_infeasible_is_definitive_not_a_failure(self):
        report = solve_lp_resilient(infeasible_lp())
        assert report.succeeded
        assert report.result.status is LpStatus.INFEASIBLE
        assert report.num_attempts == 1

    def test_backend_chain_prefers_by_size_and_capability(self):
        assert backend_chain(small_lp()) == ("simplex", "scipy", "tree")
        assert backend_chain(small_lp(), "scipy") == (
            "scipy", "simplex", "tree"
        )
        assert backend_chain(small_lp(), "tree")[0] == "tree"
        free = LinearProgram()
        free.add_variable("x", cost=1.0, lb=-np.inf)
        assert backend_chain(free)[0] == "scipy"


class TestInjectedFaults:
    """One scenario per fault class; every attempt must be on the record."""

    def test_exception_fault_falls_through(self):
        solvers = faults.faulty_solvers(
            {"simplex": [faults.ExceptionFault("injected crash")]}
        )
        report = solve_lp_resilient(
            small_lp(), ("simplex", "scipy"),
            solvers=solvers, rescale_retry=False,
        )
        assert report.result.is_optimal
        assert report.result.objective == pytest.approx(2.0)
        assert report.result.backend == "scipy-highs"
        assert [a.outcome for a in report.attempts] == [
            AttemptOutcome.EXCEPTION, AttemptOutcome.OPTIMAL,
        ]
        assert "injected crash" in report.attempts[0].error

    def test_timeout_fault_falls_through(self):
        solvers = faults.faulty_solvers(
            {"simplex": [faults.TimeoutFault(seconds=1.0)]}
        )
        report = solve_lp_resilient(
            small_lp(), ("simplex", "scipy"), solvers=solvers, timeout=0.1
        )
        assert report.result.is_optimal
        assert report.result.backend == "scipy-highs"
        assert report.attempts[0].outcome == AttemptOutcome.TIMEOUT
        assert "wall clock" in report.attempts[0].error

    def test_nan_solution_fault_rejected_and_recovered(self):
        solvers = faults.faulty_solvers(
            {"simplex": [faults.NanSolutionFault()]}
        )
        report = solve_lp_resilient(
            small_lp(), ("simplex", "scipy"),
            solvers=solvers, rescale_retry=False,
        )
        assert report.result.is_optimal
        assert np.all(np.isfinite(report.result.x))
        assert report.attempts[0].outcome == AttemptOutcome.INVALID

    def test_wrong_status_fault_retried_then_recovered(self):
        solvers = faults.faulty_solvers(
            {"simplex": [
                faults.WrongStatusFault(LpStatus.ERROR),
                faults.WrongStatusFault(LpStatus.ERROR),
            ]}
        )
        report = solve_lp_resilient(
            small_lp(), ("simplex", "scipy"), solvers=solvers
        )
        assert report.result.is_optimal
        # error -> rescaled retry on simplex -> fallback to scipy
        assert [(a.outcome, a.rescaled) for a in report.attempts] == [
            (AttemptOutcome.ERROR, False),
            (AttemptOutcome.ERROR, True),
            (AttemptOutcome.OPTIMAL, False),
        ]
        assert report.fallbacks_used == 2

    def test_every_fault_class_at_once(self):
        """Acceptance scenario: first backend exhausts its whole fault
        repertoire across successive LPs; the chain never fails."""
        schedule = [
            faults.ExceptionFault(),
            faults.NanSolutionFault(),
            faults.WrongStatusFault(LpStatus.ERROR),
        ]
        wrapped = faults.FaultyBackend(
            default_solvers()["simplex"], schedule, name="simplex"
        )
        for _ in schedule:
            report = solve_lp_resilient(
                small_lp(), ("simplex", "scipy"),
                solvers={"simplex": wrapped}, rescale_retry=False,
            )
            assert report.result.is_optimal
            assert report.result.objective == pytest.approx(2.0)
        assert wrapped.calls == len(schedule)
        assert len(wrapped.injected) == len(schedule)


class TestTotalFailure:
    def test_all_backends_down_raises_with_report(self):
        solvers = faults.faulty_solvers({
            "simplex": [faults.ExceptionFault("s down")],
            "scipy": [faults.ExceptionFault("h down")],
        })
        with pytest.raises(AllBackendsFailedError) as exc_info:
            solve_lp_resilient(
                small_lp(), ("simplex", "scipy"),
                solvers=solvers, rescale_retry=False,
            )
        report = exc_info.value.report
        assert isinstance(report, SolveReport)
        assert not report.succeeded
        assert report.backends_tried == ("simplex", "scipy")
        assert "s down" in report.summary() and "h down" in report.summary()

    def test_raise_on_failure_false_returns_report(self):
        """The error carries the full report (there is no report-returning
        failure mode)."""
        solvers = faults.faulty_solvers({
            "simplex": [faults.ExceptionFault()],
            "scipy": [faults.ExceptionFault()],
        })
        with pytest.raises(AllBackendsFailedError) as exc_info:
            solve_lp_resilient(
                small_lp(), ("simplex", "scipy"), solvers=solvers,
                rescale_retry=False,
            )
        report = exc_info.value.report
        assert report.result is None
        assert report.num_attempts == 2

    def test_unknown_backend_name_rejected(self):
        with pytest.raises(ValueError, match="unknown LP backends"):
            solve_lp_resilient(small_lp(), ("loqo",))


class TestRescaling:
    def test_rescale_roundtrip_preserves_optimum(self):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0, ub=1e8)
        y = lp.add_variable("y", cost=2.0)
        lp.add_constraint({x: 1.0, y: 1.0}, Sense.GE, 3e7, name="big")
        scaled, s = rescale_lp(lp)
        assert s == pytest.approx(1e8)
        assert scaled.row(0)[2] == pytest.approx(0.3)
        from repro.lp import solve_lp

        res = solve_lp(scaled, "simplex").require_optimal()
        x_orig = np.asarray(res.x) * s
        assert lp.objective_value(x_orig) == pytest.approx(3e7)
        assert lp.is_feasible(x_orig, tol=1.0)

    def test_rescaled_attempt_flagged_in_report(self):
        solvers = faults.faulty_solvers(
            {"simplex": [faults.ExceptionFault("numeric blowup")]}
        )
        report = solve_lp_resilient(
            small_lp(), ("simplex",), solvers=solvers, rescale_retry=True
        )
        # first raw attempt raises; rescaled retry passes through and wins
        assert report.result.is_optimal
        assert [a.rescaled for a in report.attempts] == [False, True]
        assert report.result.objective == pytest.approx(2.0)


class TestLubtIntegration:
    def _instance(self):
        from repro import DelayBounds, Point, nearest_neighbor_topology
        from repro.ebf.bounds import radius_of

        rng = np.random.default_rng(7)
        pts = [
            Point(float(x), float(y)) for x, y in rng.integers(0, 60, (8, 2))
        ]
        topo = nearest_neighbor_topology(pts, Point(30.0, 30.0))
        r = radius_of(topo)
        return topo, DelayBounds.uniform(8, 0.8 * r, 1.3 * r)

    def test_solve_lubt_resilient_records_reports(self):
        from repro import solve_lubt

        topo, bounds = self._instance()
        sol = solve_lubt(topo, bounds, resilient=True)
        assert sol.solve_reports  # one report per LP solve
        assert all(r.succeeded for r in sol.solve_reports)
        assert sol.stats.lp_fallbacks == 0
        baseline = solve_lubt(topo, bounds)
        assert sol.cost == pytest.approx(baseline.cost)

    def test_solve_and_embed_passes_resilient_through(self):
        from repro import solve_and_embed

        topo, bounds = self._instance()
        sol, tree = solve_and_embed(topo, bounds, resilient=True)
        assert sol.solve_reports
        assert tree.cost == pytest.approx(sol.cost)


class TestCooperativeDeadlines:
    """Per-attempt timeouts are deadlines the backends honour themselves:
    a timed-out attempt returns, it is not abandoned on a live thread."""

    def test_timeout_fault_cascade_leaves_no_thread(self):
        before = set(threading.enumerate())
        solvers = faults.faulty_solvers(
            {"simplex": [faults.TimeoutFault(seconds=3.0)]}
        )
        t0 = time.perf_counter()
        report = solve_lp_resilient(
            small_lp(), ("simplex", "scipy"), solvers=solvers, timeout=0.1
        )
        assert time.perf_counter() - t0 < 2.0
        assert [a.outcome for a in report.attempts] == [
            AttemptOutcome.TIMEOUT, AttemptOutcome.OPTIMAL,
        ]
        assert set(threading.enumerate()) == before

    def test_solve_lubt_lp_timeout_leaves_no_thread(self):
        from repro import solve_lubt

        topo, bounds = TestLubtIntegration()._instance()
        before = set(threading.enumerate())
        sol = solve_lubt(
            topo, bounds, resilient=True, lp_timeout=0.1,
            solvers=faults.faulty_solvers(
                {"simplex": [faults.TimeoutFault(seconds=3.0)]}
            ),
        )
        assert set(threading.enumerate()) == before
        outcomes = [a.outcome for r in sol.solve_reports for a in r.attempts]
        assert outcomes[0] == AttemptOutcome.TIMEOUT
        assert sol.cost == pytest.approx(solve_lubt(topo, bounds).cost)

    def test_scipy_time_limit_is_a_timeout_attempt(self):
        from repro.data import synth_instance
        from repro.ebf import build_ebf_lp

        topo, bounds = synth_instance(64, 11)
        lp = build_ebf_lp(topo, bounds)  # full Steiner family: ~2k rows
        before = set(threading.enumerate())
        with pytest.raises(AllBackendsFailedError) as exc_info:
            solve_lp_resilient(lp, ("scipy",), timeout=1e-6)
        assert set(threading.enumerate()) == before
        report = exc_info.value.report
        assert report.result is None
        [attempt] = report.attempts
        assert attempt.outcome == AttemptOutcome.TIMEOUT
        assert "wall clock" in attempt.error

    def test_simplex_checks_its_deadline(self):
        from repro.lp.simplex import solve_simplex

        lp = LinearProgram()
        xs = [lp.add_variable(f"x{j}", cost=1.0 + j % 3) for j in range(60)]
        for i in range(60):
            lp.add_constraint(
                {xs[i]: 1.0, xs[(i + 1) % 60]: 1.0}, Sense.GE, 1.0 + i % 5
            )
        assert solve_simplex(lp).status is LpStatus.OPTIMAL
        assert solve_simplex(lp, time_limit=1e-9).status is LpStatus.TIME_LIMIT

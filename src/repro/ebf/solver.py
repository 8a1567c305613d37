"""The LUBT solver: EBF LP + Section 4.6 row generation.

:func:`generate_rows` is the paper's constraint reduction as sound row
generation: solve, add the most violated Steiner rows not yet in the
model, repeat until a scan finds nothing new.  ``mode="lazy"`` seeds it
with the farthest cross pair per branching node; ``mode="full"`` seeds it
with all C(m,2) pairs — the literal formulation of Section 4.3 — so its
first scan finds nothing new.  The elastic infeasibility diagnosis
(:mod:`repro.resilience.elastic`) runs the same loop.  Every solve ends
with an exact all-pairs violation check, so a returned solution always
satisfies *every* Steiner constraint; by LP optimality it is the minimum
cost LUBT for the topology (Theorem 4.2).  ``backend="tree"`` needs no row
generation: its collapsed model already holds every Steiner constraint.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.delay import sink_delays_linear, tree_cost
from repro.ebf.bounds import BoundsError, DelayBounds
from repro.ebf.constraints import (
    all_sink_pairs,
    pair_key,
    seed_constraint_pairs,
    steiner_violations,
)
from repro.ebf.formulation import (
    add_steiner_rows,
    build_ebf_lp,
    build_tree_lp,
    edges_from_potentials,
    expand_edge_vector,
)
from repro.lp import InfeasibleError, solve_lp
from repro.lp.solve import preferred_backend

_VIOLATION_TOL = 1e-6


@dataclass(frozen=True)
class SolveStats:
    """Diagnostics for one LUBT solve."""

    backend: str
    mode: str
    rounds: int
    steiner_rows: int
    total_pairs: int
    lp_iterations: int
    wall_seconds: float
    #: Extra LP attempts (retries + backend switches) under resilient mode.
    lp_fallbacks: int = 0
    #: Wall-clock spent inside LP backends, summed over rounds.
    lp_seconds: float = 0.0
    #: Steiner rows seeded from a :class:`~repro.ebf.sweep.WarmStart`
    #: carry-over before the first LP solve (lazy mode only).
    warm_rows: int = 0
    #: Wall-clock of the embedding stage.  The solver itself never embeds;
    #: :func:`repro.embedding.solve_and_embed` stamps this in afterwards.
    embed_seconds: float = 0.0


@dataclass(frozen=True)
class LubtSolution:
    """A minimum-cost LUBT for a fixed topology (edge lengths only).

    Steiner point *locations* are recovered separately by
    :func:`repro.embedding.embed_tree`, mirroring the paper's two stage
    structure (LP first, DME-style placement second).

    ``lp``/``lp_result`` are retained when ``solve_lubt(keep_lp=True)``
    so downstream analyses (e.g. delay-bound shadow prices) can read row
    duals without re-solving.  Under ``backend="tree"`` ``lp`` is the
    collapsed node-potential model and ``lp_result`` its answer mapped to
    edge lengths, without duals.

    ``diagnosis`` is set only on the graceful-degradation path
    (``on_infeasible="relax"``): the original bounds were infeasible and
    ``bounds`` here are the minimally relaxed ones the diagnosis
    produced.  ``solve_reports`` (resilient mode) records every LP
    attempt the fallback chain made, one report per LP solve.
    """

    topology: object
    bounds: DelayBounds
    edge_lengths: np.ndarray
    cost: float
    delays: np.ndarray
    stats: SolveStats
    weights: np.ndarray | None = field(default=None, repr=False)
    lp: object | None = field(default=None, repr=False, compare=False)
    lp_result: object | None = field(default=None, repr=False, compare=False)
    diagnosis: object | None = field(default=None, repr=False, compare=False)
    solve_reports: tuple = field(default=(), repr=False, compare=False)

    @property
    def skew(self) -> float:
        return float(self.delays.max() - self.delays.min())

    @property
    def shortest_delay(self) -> float:
        return float(self.delays.min())

    @property
    def longest_delay(self) -> float:
        return float(self.delays.max())


#: Round cap of :func:`generate_rows`.  Every round adds at least one new
#: row, so the loop always ends; the cap turns a starved batch on a large
#: net into an error instead of thousands of LP solves.
MAX_ROUNDS = 60


def seed_pairs(topo, mode: str) -> list[tuple[int, int]]:
    """The Steiner pairs row generation starts from: every sink pair
    (``"full"``, Section 4.3) or the farthest cross pair per branching
    node (``"lazy"``, Section 4.6)."""
    if mode == "full":
        return list(all_sink_pairs(topo))
    if mode == "lazy":
        return seed_constraint_pairs(topo)
    raise ValueError(f"unknown mode {mode!r}")


def generate_rows(lp, topo, pairs, solve, *, batch, warm=None):
    """Section 4.6 row generation on ``lp``, which holds the Steiner rows
    of ``pairs`` and has the edge lengths as its first ``n - 1`` columns.

    Each round solves with ``solve(lp)``, scans for the ``batch`` most
    violated Steiner pairs, drops those already in ``pairs``, appends the
    rest sorted by ``(-violation, i, j)`` and repeats until a scan finds
    nothing new.  ``pairs`` grows in place.  ``warm`` (a
    :class:`~repro.ebf.sweep.WarmStart`) adds its carried rows before the
    first solve and absorbs the rows this run discovered once it
    converges — sound because Steiner rows depend only on the topology.

    Returns ``(result, edges, rounds, iterations, warm_rows)``: the last
    round's optimal LP answer, its edge lengths indexed by node id, the
    round count, LP iterations summed over rounds, and the number of
    rows carried in from ``warm``.  Raises :class:`RuntimeError` after
    :data:`MAX_ROUNDS` rounds.
    """
    # Already-added pairs, orientation-normalized: violation tolerance
    # jitter must not append duplicate Steiner rows.
    seen = {pair_key(i, j) for i, j in pairs}

    def add(rows):
        add_steiner_rows(lp, topo, rows)
        seen.update(pair_key(i, j) for i, j, _ in rows)
        pairs.extend((i, j) for i, j, _ in rows)

    carried = []
    if warm is not None:
        carried = [
            (i, j, k)
            for i, j, k in warm.pairs_for(topo)
            if pair_key(i, j) not in seen
        ]
        if carried:
            add(carried)
    n_edges = topo.num_nodes - 1
    iterations = 0
    discovered: list[tuple[int, int, int]] = []
    for rounds in range(1, MAX_ROUNDS + 1):
        result = solve(lp).require_optimal()
        iterations += result.iterations
        e = expand_edge_vector(topo, result.x[:n_edges])
        picked = [
            (i, j, k, v)
            for i, j, k, v in steiner_violations(
                topo, e, _VIOLATION_TOL, limit=batch, with_lca=True
            )
            if pair_key(i, j) not in seen
        ]
        if not picked:
            # Either no violations, or every violated pair is already a
            # row (sub-tolerance LP slack); re-adding identical rows
            # cannot change the optimum, and solve_lubt's exact
            # post-validation still guards its result.
            break
        # Total order on the batch: the scan's tie order is an
        # implementation detail, and row append order decides which
        # degenerate optimum vertex the backend returns — sort so reruns
        # are bit-reproducible.
        picked.sort(key=lambda t: (-t[3], t[0], t[1]))
        fresh = [(i, j, k) for i, j, k, _ in picked]
        add(fresh)
        discovered += fresh
    else:
        raise RuntimeError(
            f"Steiner row generation did not converge in {MAX_ROUNDS} rounds"
        )
    if warm is not None:
        warm.absorb(topo, discovered)
    return result, e, rounds, iterations, len(carried)


def solve_lubt(
    topo,
    bounds: DelayBounds,
    *,
    weights=None,
    zero_edges=(),
    backend: str = "auto",
    mode: str = "lazy",
    batch: int = 4000,
    check_bounds: bool = True,
    validate: bool | str = True,
    keep_lp: bool = False,
    resilient: bool = False,
    lp_timeout: float | None = None,
    on_infeasible: str = "raise",
    warm=None,
    breakers=None,
    solvers=None,
) -> LubtSolution:
    """Solve the LUBT problem for a fixed topology (Definition 2.1).

    Raises :class:`repro.lp.InfeasibleError` when no LUBT exists for the
    topology and bounds — per Section 9, EBF infeasibility is exactly that
    certificate.

    Parameters
    ----------
    backend:
        ``"auto"`` (size-based simplex/scipy choice, default),
        ``"simplex"``, ``"scipy"``, or ``"tree"`` — build the collapsed
        node-potential model (:func:`~repro.ebf.formulation.build_tree_lp`),
        which enforces the *entire* Steiner family in O(n) rows, straight
        from ``(topo, bounds)`` and solve it once with HiGHS; ``mode``,
        ``batch`` and ``warm`` do not apply to it.
    mode:
        The :func:`generate_rows` seed: ``"lazy"`` (Section 4.6, one
        pair per branching node, default) or ``"full"`` (all C(m,2)
        Steiner rows up front, so the loop stops after one round).
    batch:
        Most-violated rows added per row-generation round.
    check_bounds:
        Verify Definition 2.1's Eq. 3/4 validity conditions first.  Turn
        off to probe infeasible bound sets deliberately.
    validate:
        Static pre-check (:func:`repro.check.check_instance`) plus exact
        post-checks.  ``"strict"`` raises
        :class:`repro.check.InstanceCheckError` on any error-severity
        diagnostic before solving — in strict mode the built LP is
        checked too; ``"warn"`` (= ``True``, the default) surfaces
        error findings as :class:`~repro.check.DiagnosticWarning`
        warnings and solves anyway; ``"off"`` (= ``False``) skips both
        the pre-check and the post-solve validation.
        ``check_bounds=False`` also disables the pre-check's geometric
        floor (``BD005``), keeping the two knobs consistent.
    resilient:
        Route every LP through :func:`repro.resilience.solve_lp_resilient`
        (backend cascade + per-attempt ``lp_timeout`` + rescale retry)
        instead of a single backend; the per-LP
        :class:`~repro.resilience.SolveReport` history lands in
        ``solution.solve_reports``.
    on_infeasible:
        ``"raise"`` (default) raises :class:`InfeasibleError` as before;
        ``"diagnose"`` additionally runs the elastic re-solve and raises
        with ``err.diagnosis`` populated; ``"relax"`` degrades gracefully
        — it re-solves under the minimally relaxed bounds and returns
        that solution with ``solution.diagnosis`` set.
    warm:
        A :class:`repro.ebf.sweep.WarmStart` carry-over (or ``None``).
        In lazy mode its remembered active pair set — the Steiner rows
        previous solves on the *same topology* discovered — is added
        alongside the seed rows before the first LP solve, which
        typically collapses a sweep's follow-up solves to one round.
        After convergence the rows this solve discovered are absorbed
        back, so the object learns across a sweep.  Sound regardless of
        bounds: Steiner rows depend only on the topology, never on the
        delay bounds, so a carried row is always a valid (if possibly
        slack) constraint.  Ignored in full mode (all rows are present
        anyway).
    breakers:
        A :class:`~repro.resilience.BreakerRegistry` shared across
        solves (resilient mode only).  Backends whose circuit is open
        are skipped without paying their timeout; each LP attempt feeds
        the registry, and per-LP breaker states appear in the solve
        reports.  Long-lived callers (the solve server, pool workers)
        pass one registry so a backend's failures in one request protect
        every later request.
    solvers:
        Backend-callable overrides forwarded to
        :func:`repro.resilience.solve_lp_resilient` (resilient mode
        only) — the fault-injection seam chaos tests use to force
        server-side backend failures.
    """
    if on_infeasible not in ("raise", "diagnose", "relax"):
        raise ValueError(f"unknown on_infeasible {on_infeasible!r}")
    if mode not in ("lazy", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    if validate is True:
        validate = "warn"
    elif validate is False:
        validate = "off"
    if validate not in ("strict", "warn", "off"):
        raise ValueError(f"unknown validate {validate!r}")
    post_validate = validate != "off"

    if validate != "off":
        _precheck(topo, bounds, strict=validate == "strict",
                  geometric_floor=check_bounds)

    retry_kwargs = dict(
        weights=weights,
        zero_edges=zero_edges,
        backend=backend,
        mode=mode,
        batch=batch,
        validate=validate,
        keep_lp=keep_lp,
        resilient=resilient,
        lp_timeout=lp_timeout,
        warm=warm,
        breakers=breakers,
        solvers=solvers,
    )
    if check_bounds:
        try:
            bounds.check(topo)
        except BoundsError:
            # Eq. 3/4 violations are infeasibility certificates known
            # before any LP; route them through the same handler.
            if on_infeasible == "raise":
                raise
            return _handle_infeasible(topo, bounds, on_infeasible, retry_kwargs)

    reports: list = []
    lp_seconds = 0.0

    def _solve(lp, resolved):
        nonlocal lp_seconds
        t0 = time.perf_counter()
        try:
            if not resilient:
                return solve_lp(lp, resolved)
            from repro.resilience import backend_chain, solve_lp_resilient

            report = solve_lp_resilient(
                lp, backend_chain(lp, resolved), timeout=lp_timeout,
                breakers=breakers, solvers=solvers,
            )
            reports.append(report)
            return report.result
        finally:
            lp_seconds += time.perf_counter() - t0

    start = time.perf_counter()
    total_pairs = topo.num_sinks * (topo.num_sinks - 1) // 2
    try:
        if backend == "tree":
            lp = build_tree_lp(
                topo, bounds, weights=weights, zero_edges=zero_edges
            )
            if validate == "strict":
                _check_built_lp(lp)
            result = _solve(lp, "scipy").require_optimal()
            e = edges_from_potentials(topo, result.x, zero_edges)
            # The caller sees edge lengths from the tree backend; the
            # collapsed rows' duals say nothing about the EBF rows.
            result = replace(result, x=e[1:], backend="tree", duals=None)
            rounds, iters, pairs, warm_rows = 1, result.iterations, [], 0
        else:
            pairs = seed_pairs(topo, mode)
            lp = build_ebf_lp(
                topo, bounds, weights=weights, pairs=pairs,
                zero_edges=zero_edges,
            )
            if validate == "strict":
                _check_built_lp(lp)
            resolved = backend

            def _solve_round(model):
                nonlocal resolved
                if resolved == "auto":
                    # Resolve "auto" once, on the first round, against the
                    # row count the loop is heading toward (``pairs`` now
                    # holds any warm rows too), and stick with it:
                    # re-deciding per round wastes a dense-tableau solve on
                    # the small seed LP only to hand the grown model to
                    # scipy next round anyway.
                    projected = model.num_constraints + min(
                        batch, max(0, total_pairs - len(pairs))
                    )
                    resolved = preferred_backend(
                        model, projected_rows=projected
                    )
                return _solve(model, resolved)

            result, e, rounds, iters, warm_rows = generate_rows(
                lp, topo, pairs, _solve_round, batch=batch,
                warm=warm if mode == "lazy" else None,
            )
    except InfeasibleError:
        if on_infeasible == "raise":
            raise
        return _handle_infeasible(topo, bounds, on_infeasible, retry_kwargs)

    wall = time.perf_counter() - start
    delays = sink_delays_linear(topo, e)
    w = None if weights is None else np.asarray(weights, dtype=float)
    cost = tree_cost(topo, e, weights=w)

    if post_validate:
        _validate_solution(topo, bounds, e, delays)

    stats = SolveStats(
        backend=result.backend,
        mode=mode,
        rounds=rounds,
        steiner_rows=len(pairs),
        total_pairs=total_pairs,
        lp_iterations=iters,
        wall_seconds=wall,
        lp_fallbacks=sum(r.fallbacks_used for r in reports),
        lp_seconds=lp_seconds,
        warm_rows=warm_rows,
    )
    return LubtSolution(
        topo,
        bounds,
        e,
        cost,
        delays,
        stats,
        w,
        lp if keep_lp else None,
        result if keep_lp else None,
        solve_reports=tuple(reports),
    )


def _precheck(topo, bounds, *, strict: bool, geometric_floor: bool) -> None:
    """Static verification of the (topology, bounds) instance before any
    LP is built; see :mod:`repro.check`."""
    from repro.check import check_instance

    result = check_instance(
        topo, bounds, geometric_floor=geometric_floor
    )
    if strict:
        result.raise_if_errors("cannot solve: instance failed static checks")
    elif not result.ok:
        import warnings

        from repro.check import DiagnosticWarning

        for d in result.errors:
            warnings.warn(DiagnosticWarning(d), stacklevel=3)


def _check_built_lp(lp) -> None:
    """Strict mode also vets the assembled LP (NaN rows, dominated or
    duplicate Steiner rows, ...) before handing it to a backend."""
    from repro.check import CheckResult, check_lp

    CheckResult(tuple(check_lp(lp))).raise_if_errors(
        "cannot solve: assembled LP failed static checks"
    )


def _handle_infeasible(topo, bounds, on_infeasible, retry_kwargs):
    """Shared ``"diagnose"``/``"relax"`` path: run the elastic re-solve,
    then either raise with the diagnosis attached or solve under the
    relaxed bounds."""
    from repro.resilience import diagnose_infeasibility

    diag = diagnose_infeasibility(
        topo,
        bounds,
        zero_edges=retry_kwargs["zero_edges"],
        backend=retry_kwargs["backend"],
        mode=retry_kwargs["mode"],
        batch=retry_kwargs["batch"],
        resilient=retry_kwargs["resilient"],
        timeout=retry_kwargs["lp_timeout"],
    )
    if on_infeasible == "diagnose":
        err = InfeasibleError(
            "no LUBT exists for these bounds (Section 9 certificate)\n"
            + diag.summary()
        )
        err.diagnosis = diag
        raise err
    relaxed = solve_lubt(
        topo,
        diag.relaxed_bounds,
        check_bounds=False,
        on_infeasible="raise",
        **retry_kwargs,
    )
    return LubtSolution(
        relaxed.topology,
        relaxed.bounds,
        relaxed.edge_lengths,
        relaxed.cost,
        relaxed.delays,
        relaxed.stats,
        relaxed.weights,
        relaxed.lp,
        relaxed.lp_result,
        diagnosis=diag,
        solve_reports=relaxed.solve_reports,
    )


def _validate_solution(topo, bounds, e, delays) -> None:
    """Exact post-checks: delay windows and all Steiner constraints."""
    if not bounds.satisfied_by(delays, tol=1e-5):
        raise AssertionError("solver returned delays outside the bounds")
    leftovers = steiner_violations(topo, e, tol=1e-5, limit=1)
    if leftovers:
        i, j, v = leftovers[0]
        raise AssertionError(
            f"Steiner constraint ({i},{j}) violated by {v:g} after solve"
        )

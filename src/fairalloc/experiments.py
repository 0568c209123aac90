"""Experiment drivers: dynamic weight scenarios, penalty sweeps, load curves.

The dynamic scenario models a network whose route weights are re-drawn every
few iterations: after each event the solver gets only a fixed handful of
rounds before the next change, so solution quality is measured as the mean
relative gap to a per-event high-accuracy reference, and robustness as the
mean percentage of overloaded links.  Anytime-feasible methods show zero
violations by construction; dual methods generally do not.

Gap aggregates are computed on the rates the network would actually carry at
each instant.  The consensus and splitting methods certify feasibility of
every extract, so their controller installs the best feasible point seen so
far — capacities never change, so the previous event's allocation stays
deployable and is simply re-scored under the new weights.  The dual-gradient
baseline cannot certify feasibility in a distributed setting; it installs
its current iterate and the overloaded links police it
(:func:`fairalloc.model.carried_rates`).  Trace rows always keep the raw
per-iterate gap of the bare iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fairness import FairnessObjective, default_objective, utility
from .model import Instance, Partition, carried_rates
from .solvers import SolverConfig, equal_split_extract, fair_optimum, solve
from .trace import TraceRow, format_value, relative_gap


class ExperimentError(ValueError):
    """Raised for invalid scenario parameters."""


@dataclass(frozen=True)
class Scenario:
    """Weight-perturbation schedule: ``n_events`` re-draws, each followed by
    ``iters_per_event`` solver rounds; each event draws weights uniform on
    ``[(1 - amplitude) * w, (1 + amplitude) * w]`` around the base weights."""

    amplitude: float
    n_events: int = 20
    iters_per_event: int = 10
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.amplitude <= 1.0):
            raise ExperimentError(f"amplitude must lie in [0, 1], got {self.amplitude}")
        if self.n_events < 1 or self.iters_per_event < 1:
            raise ExperimentError("n_events and iters_per_event must be >= 1")


def evolve_weights(weights: np.ndarray, amplitude: float, rng: np.random.Generator) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    return rng.uniform((1.0 - amplitude) * w, (1.0 + amplitude) * w)


@dataclass
class DynamicResult:
    algorithm: str
    trace: list[TraceRow]
    mean_gap: float
    mean_violation: float
    per_event_gap: np.ndarray
    per_event_violation: np.ndarray
    first_gap_per_event: np.ndarray
    weights_history: list[np.ndarray]
    references: list[np.ndarray]


class ReferenceCache:
    """Per-event references shared across algorithm runs of one scenario.

    Keyed by event number; entries remember the weights they were solved for,
    so a mismatch (different scenario or seed) recomputes instead of lying.
    """

    def __init__(self):
        self._entries: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def get(self, event: int, weights: np.ndarray):
        entry = self._entries.get(event)
        if entry is not None and np.array_equal(entry[0], weights):
            return entry[1]
        return None

    def put(self, event: int, weights: np.ndarray, allocation: np.ndarray) -> None:
        self._entries[event] = (weights.copy(), allocation)


def run_dynamic(
    instance: Instance,
    partition: Partition | None,
    algorithm: str,
    scenario: Scenario,
    config: SolverConfig | None = None,
    reference_cache: ReferenceCache | None = None,
) -> DynamicResult:
    """Chase ``n_events`` weight re-draws from a cold start.

    The solver state is initialized fresh, then each event runs exactly
    ``iters_per_event`` rounds continuing from wherever the previous event
    left off (tolerances are disabled), so the trace exposes how far the
    method gets in a fixed real-time budget — initial convergence and
    re-tracking are averaged together.  Gaps are measured against each
    event's optimum from :func:`fairalloc.solvers.fair_optimum`, an
    interior-point solve independent of the algorithms scored; the per-event
    aggregates score the served allocation (see the module docstring), while
    trace rows keep the raw per-iterate gap.
    """
    config = config or SolverConfig()
    cache = reference_cache if reference_cache is not None else ReferenceCache()
    base = default_objective(instance)
    rng = np.random.default_rng(scenario.seed)

    event_cfg = replace(
        config,
        tol_primal=0.0,
        tol_dual=0.0,
        max_iters=scenario.iters_per_event,
        record_allocations=algorithm == "lagr",
        time_budget=None,
    )

    trace: list[TraceRow] = []
    per_event_gap = np.empty(scenario.n_events)
    per_event_violation = np.empty(scenario.n_events)
    first_gap = np.empty(scenario.n_events)
    weights_history: list[np.ndarray] = []
    references: list[np.ndarray] = []

    anytime = algorithm != "lagr"
    # the controller serves the equal-split start until an iterate beats it
    served = equal_split_extract(instance) if anytime else None

    state = None
    for t in range(1, scenario.n_events + 1):
        # each event perturbs the *base* weights, not the previous draw: a
        # chained multiplicative walk drifts toward zero and by high
        # amplitudes turns the instance degenerate
        weights = evolve_weights(base.weights, scenario.amplitude, rng)
        weights_history.append(weights.copy())
        objective_t = FairnessObjective(alpha=base.alpha, weights=weights)

        ref_alloc = cache.get(t, weights)
        if ref_alloc is None:
            ref_alloc = fair_optimum(instance, objective_t)
            cache.put(t, weights, ref_alloc)
        references.append(ref_alloc)

        result = solve(
            instance,
            partition,
            algorithm,
            config=event_cfg,
            objective=objective_t,
            warm_state=state,
            reference=ref_alloc,
            event_index=t,
        )
        state = result.state
        trace.extend(result.trace)
        ref_util = utility(objective_t, ref_alloc)
        if anytime:
            run_util = utility(objective_t, served)
            gaps = np.empty(len(result.trace))
            for i, row in enumerate(result.trace):
                run_util = max(run_util, row.objective_value)
                gaps[i] = relative_gap(run_util, ref_util)
            if result.best_feasible is not None and result.best_utility > utility(objective_t, served):
                served = result.best_feasible.copy()
        else:
            # the dual method's iterates overload links, which the network
            # polices; its aggregate scores what the links actually carry
            gaps = np.array([
                relative_gap(utility(objective_t, carried_rates(instance, x)), ref_util)
                for x in result.allocations
            ])
        viols = np.array([row.violated_pct for row in result.trace])
        per_event_gap[t - 1] = float(np.mean(gaps))
        per_event_violation[t - 1] = float(np.mean(viols))
        first_gap[t - 1] = float(gaps[0])

    return DynamicResult(
        algorithm=algorithm,
        trace=trace,
        mean_gap=float(np.mean(per_event_gap)),
        mean_violation=float(np.mean(per_event_violation)),
        per_event_gap=per_event_gap,
        per_event_violation=per_event_violation,
        first_gap_per_event=first_gap,
        weights_history=weights_history,
        references=references,
    )


# ---------------------------------------------------------------------------
# penalty sweep

@dataclass(frozen=True)
class SweepPoint:
    mode: str  # "fixed" or "adaptive"
    penalty: float
    iterations: int
    converged: bool


def sweep_penalty(
    instance: Instance,
    penalties,
    tol: float = 1e-3,
    max_iters: int = 50_000,
    include_adaptive: bool = True,
    partition: Partition | None = None,
) -> list[SweepPoint]:
    """Iterations-to-tolerance for each fixed penalty, plus the adaptive rule.

    The fixed-penalty curve is the classic U shape; the adaptive row records
    the penalty value the rule froze at.
    """
    points: list[SweepPoint] = []
    for lam in penalties:
        cfg = SolverConfig(penalty=float(lam), tol_primal=tol, tol_dual=tol, max_iters=max_iters)
        result = solve(instance, partition, "fd-admm", config=cfg)
        points.append(
            SweepPoint(mode="fixed", penalty=float(lam), iterations=result.iterations, converged=result.converged)
        )
    if include_adaptive:
        cfg = SolverConfig(penalty="adaptive", tol_primal=tol, tol_dual=tol, max_iters=max_iters)
        result = solve(instance, partition, "fd-admm", config=cfg)
        points.append(
            SweepPoint(
                mode="adaptive",
                penalty=float(result.state.penalty.value),
                iterations=result.iterations,
                converged=result.converged,
            )
        )
    return points


def write_sweep(points: list[SweepPoint], path) -> None:
    """The sweep CSV: ``mode,penalty,iterations,converged``, one row per point."""
    with open(path, "w", newline="\n") as fh:
        fh.write("mode,penalty,iterations,converged\n")
        for p in points:
            fh.write(f"{p.mode},{format_value(p.penalty)},{p.iterations},{int(p.converged)}\n")


# ---------------------------------------------------------------------------
# load curve

@dataclass(frozen=True)
class LoadPoint:
    mean_link_load: float
    n_routes: int
    iterations: int
    converged: bool


def mean_link_load(instance: Instance) -> float:
    """Average number of routes crossing a link."""
    if instance.n_links == 0:
        return 0.0
    return instance.incidence.n_copies / instance.n_links


def load_curve(
    instances,
    tol: float = 1e-3,
    max_iters: int = 50_000,
    penalty: float | str = "adaptive",
) -> list[LoadPoint]:
    """Iterations-to-tolerance as instances grow denser."""
    points: list[LoadPoint] = []
    for inst in instances:
        cfg = SolverConfig(penalty=penalty, tol_primal=tol, tol_dual=tol, max_iters=max_iters)
        result = solve(inst, None, "fd-admm", config=cfg)
        points.append(
            LoadPoint(
                mean_link_load=mean_link_load(inst),
                n_routes=inst.n_routes,
                iterations=result.iterations,
                converged=result.converged,
            )
        )
    return points


def write_load_curve(points: list[LoadPoint], path) -> None:
    """The load-curve CSV: ``mean_link_load,n_routes,iterations,converged``."""
    with open(path, "w", newline="\n") as fh:
        fh.write("mean_link_load,n_routes,iterations,converged\n")
        for p in points:
            fh.write(f"{format_value(p.mean_link_load)},{p.n_routes},{p.iterations},{int(p.converged)}\n")

"""Consensus solvers for weighted alpha-fair rate allocation.

Two ADMM variants share the same proximal and projection primitives:

* ``c-admm`` — centralized splitting that alternates the utility prox with a
  path-following projection onto the full capacity polyhedron;
* ``fd-admm`` — link-by-link consensus form that keeps one copy of a route's
  rate per traversed link plus one owned by the route itself, projects each
  link's copies onto that link's capped simplex independently, and averages.
  The per-route minimum over link copies is feasible at *every* iteration, so
  the method can be stopped at any round with a usable allocation.

A dual-gradient baseline (``lagr``) with the classic multiplicative step rule
is included for comparison; its iterates are generally infeasible until
convergence.

fd-admm and c-admm serve exactly feasible allocations by one rule: one
:class:`BatchedLinkProjector` call projects every link's copies, and each
route takes the minimum of its copies, which is at most each copy, so every
load fits.  fd-admm's :func:`consensus_round` applies it to its copies each
round, and :func:`cadmm_step` and :func:`fair_optimum` to their points spread
over the copies.  The start of fd-admm and c-admm, and of every simulated
domain controller, is the rule applied to each link's equal share of its
capacity: :func:`initial_state` seeds from those projected copies, and
:func:`equal_split_extract` is their extract.

One loop in ``solve`` runs all three.  Each state dataclass (``FdState``,
``CadmmState``, ``LagrState``) carries its ``ConsensusIndex`` and exposes
the allocation it deploys (``allocation``) and its penalty-scaled dual
arrays (``dual_arrays``, empty for ``lagr``).  The table ``METHODS`` maps
each algorithm name to its initial-state function ``init(index, penalty)``
and its step.  ``solve`` builds the index once, or takes it from a warm
state, and every round it adapts the penalty, takes a step, scores the
allocation from one ``link_loads`` pass and tests whether to stop.  A new
penalty, at a warm-start handoff or from the adaptive rule, is installed by
one helper that rescales the duals.

Bit-reproducibility: an fd-admm round's arithmetic is one kernel,
:func:`consensus_round`, over a :class:`RoundLayout` from
:meth:`ConsensusIndex.round_layout`: ``fdadmm_round`` runs it on every link,
each simulated domain controller on its domain's links.  Its sums go through
``numerics.segment_sums`` (one fixed tree per segment) on copies ordered by
(route, domain, link), so both yield the same bits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .fairness import (
    FairnessObjective,
    PenaltyState,
    adapt_penalty,
    bottleneck_capacities,
    cost_gradient,
    default_objective,
    prox_values,
    utility,
)
from .model import Instance, Partition, link_loads, route_minima, single_domain
from .numerics import segment_mins, segment_sums
from .projections import BatchedLinkProjector, path_following, project_polyhedron
from .trace import TraceRow, overloaded_percentage, relative_gap

ALGORITHMS = ("fd-admm", "c-admm", "lagr")


class SolverError(RuntimeError):
    """Raised for invalid solver configuration or non-convergent references."""


@dataclass(frozen=True)
class Residuals:
    primal: float
    dual: float


@dataclass(frozen=True)
class SolverConfig:
    penalty: float | str = "adaptive"
    adapt_tau: int = 30
    tol_primal: float = 1e-6
    tol_dual: float = 1e-6
    max_iters: int = 100_000
    time_budget: float | None = None
    record_allocations: bool = False

    def __post_init__(self):
        if isinstance(self.penalty, str):
            if self.penalty != "adaptive":
                raise SolverError(f"penalty must be a positive number or 'adaptive', got {self.penalty!r}")
        elif not (self.penalty > 0 and np.isfinite(self.penalty)):
            raise SolverError(f"penalty must be > 0, got {self.penalty!r}")
        if self.tol_primal < 0 or self.tol_dual < 0:
            raise SolverError("tolerances must be >= 0")
        if self.max_iters < 1:
            raise SolverError("max_iters must be >= 1")
        if self.adapt_tau < 0:
            raise SolverError("adapt_tau must be >= 0")
        if self.time_budget is not None and self.time_budget <= 0:
            raise SolverError("time_budget must be > 0 or None")


class RoundLayout(NamedTuple):
    """Where one fd-admm round reads and writes, over flat arrays of routes,
    holder slots and link copies, and which of the instance's routes, slots
    and copies those are; built by :meth:`ConsensusIndex.round_layout`."""

    slot_starts: np.ndarray  # per route: its segment of the holder slots
    divisor: np.ndarray  # per route: its link count plus one
    copy_route: np.ndarray  # per link copy: the position of its route
    projector: BatchedLinkProjector  # over the link copies
    order: np.ndarray  # the copies of the written groups, group by group
    group_starts: np.ndarray  # per written group: its segment of ``order``
    routes: np.ndarray  # per route: its id
    slots: np.ndarray  # per holder slot: its (route, domain) group
    copies: np.ndarray  # per link copy: its incidence position
    link_starts: np.ndarray  # per link: where its copies start, then the copy count


def group_reductions(layout: RoundLayout, copies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sum and the minimum of each written group of ``copies``."""
    by_group = copies[layout.order]
    return segment_sums(by_group, layout.group_starts), segment_mins(by_group, layout.group_starts)


def consensus_round(
    layout: RoundLayout, slot_sums: np.ndarray, route_values: np.ndarray, copies: np.ndarray,
    copy_duals: np.ndarray, route_duals: np.ndarray, alpha: float, weights: np.ndarray, lam: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One fd-admm round: average, dual step, project links, prox routes.

    The node-local x, z and dual updates of general-form consensus ADMM
    (Boyd et al., 2011, section 7.2); a route's consensus is its slot sums
    plus its route-owned copy, over the divisor, and the prox starts from
    the last round's ``route_values`` (Boyd et al., 2011, section 4.3: warm
    start of the iterative x-update).  Updates ``copies``,
    ``copy_duals`` and ``route_duals`` in place and returns the consensus,
    the new route values, and each written group's sum and minimum.
    """
    consensus = (segment_sums(slot_sums, layout.slot_starts) + route_values) / layout.divisor
    spread = consensus[layout.copy_route]
    copy_duals += copies - spread
    layout.projector.apply(spread - copy_duals, out=copies)
    route_duals += route_values - consensus
    new_route_values = prox_values(alpha, weights, consensus - route_duals, lam, start=route_values)
    return (consensus, new_route_values, *group_reductions(layout, copies))


class ConsensusIndex:
    """Precomputed layout for the link-by-link consensus iteration.

    Copies live in two orders: the incidence order (link, route) used for
    projection and loads, and a permutation ``perm_rd`` sorted by (route,
    domain, link) whose contiguous segments are the (route, domain) groups a
    domain controller transmits; the group table, the one record of which
    domains hold a route, has where each opens, its route and its domain.
    :meth:`round_layout` reads the layout of any domains' links from it;
    ``layout``, the one of every link, is built at first use, as c-admm and
    lagr never read it.  Per round fd-admm sends ``floats_per_round``, 2 per
    route from each of its ``h`` holders to every other: ``2 sum h (h - 1)``.
    It keeps the partition's ``domain_of_link``, so ``solve`` can tell a warm
    state of another partition.
    """

    def __init__(self, instance: Instance, partition: Partition):
        if len(partition.domain_of_link) != instance.n_links:
            raise SolverError(f"partition maps {len(partition.domain_of_link)} links, instance has {instance.n_links}")
        inc = instance.incidence
        self.instance = instance
        self.domain_of_link = partition.domain_of_link
        self.n_routes = instance.n_routes
        self.copy_route = inc.copy_route
        self.copy_link = inc.copy_link
        self.n_copies = inc.n_copies

        link_count = np.bincount(self.copy_route, minlength=self.n_routes)
        if not link_count.all():
            raise SolverError("every route must traverse at least one link")
        self.divisor = link_count + 1.0
        domain_of_copy = np.asarray(partition.domain_of_link, dtype=np.intp)[self.copy_link]
        # primary sort key route, then domain; the incidence order keeps links ascending
        self.perm_rd = np.lexsort((domain_of_copy, self.copy_route))
        route_rd = self.copy_route[self.perm_rd]
        domain_rd = domain_of_copy[self.perm_rd]
        opens_route = np.ones(self.n_copies, dtype=bool)
        opens_route[1:] = route_rd[1:] != route_rd[:-1]
        self.route_starts_rd = np.nonzero(opens_route)[0]
        # the group table: where each (route, domain) group opens in ``perm_rd``,
        # then per group its route, its domain and whether it opens its route
        self.opens_group = opens_route.copy()
        self.opens_group[1:] |= domain_rd[1:] != domain_rd[:-1]
        self.group_route = route_rd[self.opens_group]
        self.group_domain = domain_rd[self.opens_group]
        self.group_opens_route = opens_route[self.opens_group]
        self.bottlenecks = bottleneck_capacities(instance)
        holders = np.bincount(self.group_route, minlength=self.n_routes)
        self.floats_per_round = int(2 * np.sum(holders * (holders - 1)))

    @cached_property
    def layout(self) -> RoundLayout:
        return self.round_layout(np.arange(self.instance.n_links))

    def round_layout(self, links: np.ndarray) -> RoundLayout:
        """The :class:`RoundLayout` over the copies of ``links``, their routes
        and their holder slots.

        ``links`` ascend and hold all links of each domain they touch.  The
        copies keep incidence order and the routes ascend; a route's slots
        are all its (route, domain) groups, and the written groups are those
        of the copies."""
        copies, link_starts = self.instance.incidence.link_copies(links)
        position = np.full(self.n_copies, -1)  # of each copy among ``copies``, -1 if not one
        position[copies] = np.arange(copies.size)
        holds_route = np.zeros(self.n_routes, dtype=bool)
        holds_route[self.copy_route[copies]] = True
        routes = np.nonzero(holds_route)[0]
        route_position = np.empty(self.n_routes, dtype=np.intp)
        route_position[routes] = np.arange(routes.size)
        slots = np.nonzero(holds_route[self.group_route])[0]
        by_group = position[self.perm_rd]
        in_order = by_group >= 0
        return RoundLayout(
            slot_starts=np.nonzero(self.group_opens_route[slots])[0], divisor=self.divisor[routes],
            copy_route=route_position[self.copy_route[copies]],
            projector=BatchedLinkProjector(link_starts, self.instance.capacities[links]),
            order=by_group[in_order],
            group_starts=np.nonzero(self.opens_group[in_order])[0],
            routes=routes, slots=slots, copies=copies, link_starts=link_starts,
        )


@dataclass
class FdState:
    """Mutable iterate of the consensus method (copy layout from ``index``)."""

    index: ConsensusIndex
    link_values: np.ndarray
    link_duals: np.ndarray
    route_values: np.ndarray
    route_duals: np.ndarray
    consensus: np.ndarray
    extract: np.ndarray
    sent_values: np.ndarray
    sent_mins: np.ndarray
    penalty: PenaltyState
    iteration: int = 0
    residuals: Residuals = field(default_factory=lambda: Residuals(np.inf, np.inf))

    @property
    def allocation(self) -> np.ndarray:
        return self.extract

    @property
    def dual_arrays(self) -> tuple[np.ndarray, ...]:
        return (self.link_duals, self.route_duals)


def _projected_copies(instance: Instance, copies: np.ndarray) -> np.ndarray:
    """Per-link ``copies`` in incidence order, projected in place onto their
    links' capped simplices by one call over every link: the first half of
    the feasible extract (module docstring)."""
    inc = instance.incidence
    BatchedLinkProjector(inc.link_starts, instance.capacities).apply(copies, out=copies)
    return copies


def _equal_split_copies(instance: Instance) -> np.ndarray:
    """Per-link copies, incidence order: each link's capacity over its
    routes, projected (``C/n`` summed ``n`` times can round above ``C``)."""
    inc = instance.incidence
    sizes = np.diff(inc.link_starts).astype(np.float64)
    return _projected_copies(instance, instance.capacities[inc.copy_link] / sizes[inc.copy_link])


def initial_state(index: ConsensusIndex, penalty: PenaltyState) -> FdState:
    """Equal-split start: the projected equal-split copies, and from them the
    slot sums and minima, the extract (:func:`equal_split_extract`, bit for
    bit), the route values and the consensus.

    All duals start at zero, which pins the all-copy dual sum of every route
    at zero for the whole run.
    """
    link_values = _equal_split_copies(index.instance)
    sent_values, sent_mins = group_reductions(index.layout, link_values)
    extract = segment_mins(sent_mins, index.layout.slot_starts)
    return FdState(
        index=index,
        link_values=link_values,
        link_duals=np.zeros(index.n_copies),
        route_values=extract.copy(),
        route_duals=np.zeros(index.n_routes),
        consensus=extract.copy(),
        extract=extract,
        sent_values=sent_values,
        sent_mins=sent_mins,
        penalty=penalty,
    )


def fdadmm_round(state: FdState, objective: FairnessObjective) -> FdState:
    """One synchronous round of :func:`consensus_round` on the whole instance,
    then the residuals and the feasible extract.

    The averaging consumes the (route, domain) aggregates computed at the end
    of the previous round — exactly the payload a domain would have received
    from its peers.
    """
    idx = state.index
    lam = state.penalty.value
    consensus, state.route_values, state.sent_values, state.sent_mins = consensus_round(
        idx.layout, state.sent_values, state.route_values, state.link_values, state.link_duals,
        state.route_duals, objective.alpha, objective.weights, lam,
    )
    # dual residual carries the penalty weight 1/lam (the multiplier change is
    # (z_new - z_old)/lam); without it a tiny lam reports convergence while
    # the iterate is still far from the optimum
    dual_res = float(np.max(np.abs(consensus - state.consensus))) / lam if consensus.size else 0.0
    state.extract = segment_mins(state.sent_mins, idx.layout.slot_starts)
    # consensus disagreement over every copy of every route: the per-link
    # copies and the prox copy (dropping the latter can report convergence
    # while the utility block is still moving)
    primal = float(np.max(np.abs(state.route_values - consensus)))
    if idx.n_copies:
        primal = max(primal, float(np.max(np.abs(state.link_values - consensus[idx.copy_route]))))
    state.consensus = consensus
    state.iteration += 1
    state.residuals = Residuals(primal=primal, dual=dual_res)
    return state


# ---------------------------------------------------------------------------
# centralized splitting

@dataclass
class CadmmState:
    index: ConsensusIndex
    x: np.ndarray
    z: np.ndarray
    dual: np.ndarray
    extract: np.ndarray
    penalty: PenaltyState
    iteration: int = 0
    residuals: Residuals = field(default_factory=lambda: Residuals(np.inf, np.inf))

    @property
    def allocation(self) -> np.ndarray:
        return self.extract

    @property
    def dual_arrays(self) -> tuple[np.ndarray, ...]:
        return (self.dual,)


def equal_split_extract(instance: Instance) -> np.ndarray:
    """The allocation served before any round: every route's minimum over
    its links of the projected equal-split copies.  Strictly positive and
    exactly feasible."""
    split = route_minima(instance, _equal_split_copies(instance))
    if np.isinf(split).any():
        raise SolverError("every route must traverse at least one link")
    return split


def initial_cadmm_state(index: ConsensusIndex, penalty: PenaltyState) -> CadmmState:
    """Start from the feasible equal split: ``x``, ``z`` and the extract."""
    split = equal_split_extract(index.instance)
    return CadmmState(
        index=index, x=split.copy(), z=split.copy(), dual=np.zeros(index.n_routes), extract=split, penalty=penalty
    )


def cadmm_step(state: CadmmState, instance: Instance, objective: FairnessObjective) -> CadmmState:
    """One iteration: prox of the utility, project onto the polyhedron, dual
    step, then the extract of the new ``z``: its link copies projected, and
    each route's minimum (module docstring)."""
    lam = state.penalty.value
    x = prox_values(objective.alpha, objective.weights, state.z - state.dual, lam, start=state.x)
    z = project_polyhedron(instance, x + state.dual)
    state.dual += x - z
    state.residuals = Residuals(
        primal=float(np.max(np.abs(x - z))),
        dual=float(np.max(np.abs(z - state.z))) / lam,
    )
    state.x = x
    state.z = z
    state.extract = route_minima(instance, _projected_copies(instance, z[instance.incidence.copy_route]))
    state.iteration += 1
    return state


# ---------------------------------------------------------------------------
# dual-gradient baseline

@dataclass
class LagrState:
    index: ConsensusIndex
    x: np.ndarray
    multipliers: np.ndarray
    iteration: int = 0
    residuals: Residuals = field(default_factory=lambda: Residuals(np.inf, np.inf))

    @property
    def allocation(self) -> np.ndarray:
        return self.x

    @property
    def dual_arrays(self) -> tuple[np.ndarray, ...]:
        return ()


def initial_lagr_state(index: ConsensusIndex, penalty: PenaltyState) -> LagrState:
    """Zero rates, unit prices; the dual-gradient step takes no penalty."""
    return LagrState(index=index, x=np.zeros(index.n_routes), multipliers=np.ones(index.instance.n_links))


def lagr_step(state: LagrState, index: ConsensusIndex, objective: FairnessObjective) -> LagrState:
    """Dual gradient step: price-optimal rates, then the multiplicative
    multiplier update ``u <- u - (u / 2C) * (C - load)``.

    Multipliers stay strictly positive because the update factor is
    ``(C + load) / 2C > 0``.  Requires ``alpha > 0`` (at ``alpha == 0`` the
    per-route subproblem is unbounded whenever a route's price falls below
    its weight).
    """
    if objective.alpha == 0.0:
        raise SolverError("dual-gradient baseline needs alpha > 0")
    prices = segment_sums(
        state.multipliers[index.copy_link[index.perm_rd]], index.route_starts_rd
    )
    if objective.alpha == 1.0:
        x = objective.weights / prices
    else:
        x = (objective.weights / prices) ** (1.0 / objective.alpha)
    loads = link_loads(index.instance, x)
    caps = index.instance.capacities
    state.multipliers = state.multipliers - (state.multipliers / (2.0 * caps)) * (caps - loads)
    state.residuals = Residuals(
        primal=float(max(0.0, np.max(loads - caps, initial=0.0))),
        dual=float(np.max(np.abs(x - state.x))),
    )
    state.x = x
    state.iteration += 1
    return state


# ---------------------------------------------------------------------------
# driver

class Method(NamedTuple):
    init: Callable  # (index, penalty) -> state
    step: Callable  # (state, objective): advances the state in place
    state: type  # the class ``init`` returns; a warm state must be one
    penalized: bool = True  # runs on a penalty with penalty-scaled duals


# the steps look up their module-level names at call time, so a wrapper
# installed on ``solvers.fdadmm_round`` (or the others) sees every round
METHODS = {
    "fd-admm": Method(initial_state, lambda s, obj: fdadmm_round(s, obj), FdState),
    "c-admm": Method(initial_cadmm_state, lambda s, obj: cadmm_step(s, s.index.instance, obj), CadmmState),
    "lagr": Method(initial_lagr_state, lambda s, obj: lagr_step(s, s.index, obj), LagrState, penalized=False),
}


@dataclass
class SolveResult:
    allocation: np.ndarray
    trace: list[TraceRow]
    converged: bool
    iterations: int
    algorithm: str
    state: object
    best_feasible: np.ndarray | None
    best_utility: float
    residuals: Residuals
    allocations: list[np.ndarray] | None = None


def _initial_penalty(config: SolverConfig, objective: FairnessObjective) -> PenaltyState:
    if config.penalty == "adaptive":
        if objective.alpha == 0.0:
            raise SolverError("adaptive penalty needs alpha > 0; pass a numeric penalty")
        return PenaltyState(value=1.0, tau=config.adapt_tau, frozen=False)
    return PenaltyState(value=float(config.penalty), tau=config.adapt_tau, frozen=True)


def _clone(state):
    """A copy of a solver state with fresh arrays and the same index."""
    arrays = {f.name: getattr(state, f.name) for f in fields(state)}
    return replace(state, **{name: a.copy() for name, a in arrays.items() if isinstance(a, np.ndarray)})


def _install_penalty(state, penalty: PenaltyState) -> None:
    """Give ``state`` a new penalty, keeping the multipliers its duals stand for.

    The duals are the multipliers scaled by the penalty (the reciprocal of
    the ADMM step ``rho`` in Boyd et al., 2011, section 3.4.1), so a change
    of penalty rescales them by new/old.
    """
    if penalty.value != state.penalty.value:
        ratio = penalty.value / state.penalty.value
        for arr in state.dual_arrays:
            arr *= ratio
    state.penalty = penalty


def solve(
    instance: Instance,
    partition: Partition | None = None,
    algorithm: str = "fd-admm",
    config: SolverConfig | None = None,
    objective: FairnessObjective | None = None,
    warm_state=None,
    reference: np.ndarray | None = None,
    event_index: int = 0,
) -> SolveResult:
    """Run one algorithm to its stopping criterion, budget, or iteration cap.

    ``warm_state`` (a prior ``SolveResult.state`` of the same algorithm on
    the same instance and, unless ``partition`` is None, the same partition,
    else :class:`SolverError`) continues from that iterate with its index
    and the index's partition; the adaptive rule re-picks the penalty from
    the carried value, counting rounds from zero, because each call counts as a
    fresh execution.  The returned allocation is the final iterate's
    feasible extract when converged, otherwise the best feasible point seen
    — except for ``lagr``, which reports its last iterate even when
    infeasible, as a dual method would in operation.
    """
    if algorithm not in ALGORITHMS:
        raise SolverError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    config = config or SolverConfig()
    objective = objective or default_objective(instance)
    if objective.weights.size != instance.n_routes:
        raise SolverError("objective weight count does not match instance routes")
    if algorithm == "lagr" and objective.alpha == 0.0:
        raise SolverError("dual-gradient baseline needs alpha > 0")
    method = METHODS[algorithm]

    start = time.perf_counter()
    reference_value = utility(objective, reference) if reference is not None else float("nan")
    penalty = _initial_penalty(config, objective)
    if warm_state is not None:
        if not isinstance(warm_state, method.state):
            raise SolverError(f"{algorithm} cannot continue a {type(warm_state).__name__}")
        # identity first: comparing the route tuples costs tens of microseconds
        if warm_state.index.instance is not instance and warm_state.index.instance != instance:
            raise SolverError("warm state belongs to another instance")
        held = warm_state.index.domain_of_link
        if partition is not None and partition.domain_of_link is not held and partition.domain_of_link != held:
            raise SolverError("warm state belongs to another partition")
        state = _clone(warm_state)
    else:
        state = method.init(ConsensusIndex(instance, partition or single_domain(instance)), penalty)
    index = state.index
    adaptive = method.penalized and not penalty.frozen
    if method.penalized:
        # a fixed penalty replaces the one the state carries; the adaptive
        # rule starts from the carried value
        value = state.penalty.value if adaptive else penalty.value
        _install_penalty(state, replace(penalty, value=value))
    message_floats = index.floats_per_round if algorithm == "fd-admm" else 0
    caps = instance.capacities

    trace: list[TraceRow] = []
    allocations: list[np.ndarray] | None = [] if config.record_allocations else None
    best_alloc: np.ndarray | None = None
    best_util = float("-inf")
    converged = False

    for k in range(config.max_iters):
        if adaptive:
            _install_penalty(
                state, adapt_penalty(state.penalty, k, state.allocation, objective, index.bottlenecks)
            )
        method.step(state, objective)
        allocation_k = state.allocation

        if allocations is not None:
            allocations.append(allocation_k.copy())
        # one load pass per round: the feasibility test of ``is_feasible``
        # and the trace's overload share both read it
        loads = link_loads(instance, allocation_k)
        if not np.any(allocation_k < 0.0) and np.all(loads <= caps):
            util_k = utility(objective, allocation_k)
            if util_k > best_util:
                best_util = util_k
                best_alloc = allocation_k.copy()
        else:
            util_k = utility(objective, allocation_k) if np.all(allocation_k >= 0) else float("nan")

        trace.append(
            TraceRow(
                iteration=state.iteration,
                event=event_index,
                algorithm=algorithm,
                objective_value=util_k,
                gap=relative_gap(util_k, reference_value),
                primal_residual=state.residuals.primal,
                dual_residual=state.residuals.dual,
                violated_pct=overloaded_percentage(loads, caps),
                message_floats=message_floats,
                wall_time=time.perf_counter() - start,
            )
        )

        if state.residuals.primal <= config.tol_primal and state.residuals.dual <= config.tol_dual:
            converged = True
            break
        if config.time_budget is not None and time.perf_counter() - start >= config.time_budget:
            break

    if converged or best_alloc is None or algorithm == "lagr":
        allocation = state.allocation.copy()
    else:
        allocation = best_alloc.copy()

    return SolveResult(
        allocation=allocation,
        trace=trace,
        converged=converged,
        iterations=state.iteration,
        algorithm=algorithm,
        state=state,
        best_feasible=best_alloc,
        best_utility=best_util,
        residuals=state.residuals,
        allocations=allocations,
    )


def reference_solution(
    instance: Instance,
    objective: FairnessObjective | None = None,
    tol: float = 1e-6,
    max_iters: int = 500_000,
    warm_state=None,
    return_result: bool = False,
):
    """High-accuracy allocation used as the comparison baseline.

    Single-domain consensus run to residuals ``tol``; adaptive penalty for
    ``alpha > 0``, fixed penalty 1 at ``alpha == 0``.  Deterministic: equal
    inputs produce identical traces and allocations.  Raises
    :class:`SolverError` if the tolerance is not reached.
    """
    obj = objective or default_objective(instance)
    config = SolverConfig(
        penalty="adaptive" if obj.alpha > 0 else 1.0,
        tol_primal=tol,
        tol_dual=tol,
        max_iters=max_iters,
    )
    result = solve(
        instance,
        partition=None,
        algorithm="fd-admm",
        config=config,
        objective=obj,
        warm_state=warm_state,
    )
    if not result.converged:
        raise SolverError(
            f"reference solve stalled: residuals {result.residuals} after {result.iterations} iterations"
        )
    return result if return_result else result.allocation


def fair_optimum(instance: Instance, objective: FairnessObjective) -> np.ndarray:
    """The alpha-fair optimum from an interior-point solve that shares no
    iterate with the consensus methods: ``projections.path_following`` on
    the negated utility, gradient ``-w x^-alpha`` and curvature
    ``alpha w x^(-alpha-1)``, then the feasible extract (module docstring),
    since the interior point may exceed a cap by rounding.

    Raises :class:`SolverError` for a weight count that does not match the
    routes or a route on no link, and ``DykstraError`` as the loop does.
    """
    if objective.weights.size != instance.n_routes:
        raise SolverError("objective weight count does not match instance routes")
    inc = instance.incidence
    if not np.bincount(inc.copy_route, minlength=instance.n_routes).all():
        raise SolverError("every route must traverse at least one link")
    alpha, w = objective.alpha, objective.weights
    x = path_following(
        instance, lambda v: cost_gradient(objective, v), lambda v: alpha * w * v ** (-alpha - 1.0), 0.0
    )
    return route_minima(instance, _projected_copies(instance, x[inc.copy_route]))

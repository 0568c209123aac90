"""The four benchmark workloads.

Every workload draws a pool of instances from the run's seed with
``model.generate_random`` and writes each to JSON before any timing starts.
One operation is a set-up (timed as ``setup_s``) followed by the timed call
into the package; operations cycle through the pool.  Figures that need a
reference solve are computed once per pool member, untimed.

Pools hold several instances because what a solve reports (rounds to
tolerance, utility gaps) differs from instance to instance by tens of
percent; averaging over a pool keeps one seed's figures close to another's.

Timed calls go through module attributes (``solvers.solve``, not a name
imported here) so the traced run's wrappers see them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fairalloc import experiments, model, simulator, solvers
from fairalloc.fairness import FairnessError, default_objective, moduli, optimal_lambda, utility
from fairalloc.model import carried_rates
from fairalloc.projections import DykstraError
from fairalloc.simulator import SimulationError
from fairalloc.solvers import SolverError
from fairalloc.trace import relative_gap

from bench import gates

# What the package raises for a failed operation.  Anything else is a fault
# in the benchmark and ends the run.
OPERATION_ERRORS = (SolverError, DykstraError, SimulationError, FairnessError)


@dataclass(frozen=True)
class Shape:
    """Instance size and the fixed amount of work in one operation."""

    nodes: int
    links: int
    routes: int
    alpha: float
    domains: int
    pool: int
    budget: int = 0  # c-admm steps, simulated rounds or weight events per operation
    capacity_range: tuple[float, float] = (1.0, 10.0)


@dataclass
class Member:
    """One pool instance: its input files and what the run learned about it."""

    seed: int
    instance_path: Path
    partition_path: Path
    penalty: float
    quality: dict | None = None
    replay: tuple | None = None
    references: object = None


@dataclass
class Outcome:
    rounds: int  # solver rounds in the operation, reference solves included
    events: int
    payload: object


def served_gaps(trace, start_utility: float, ref_util: float) -> list[float]:
    """Per-round gap of the best feasible allocation served so far."""
    best = start_utility
    out = []
    for row in trace:
        best = max(best, row.objective_value)
        out.append(relative_gap(best, ref_util))
    return out


class Workload:
    name = ""
    # operations counted per timed call: a solve or dynamic run is one,
    # each simulated round is one
    attempts_per_op = 1

    def __init__(self, shape: Shape):
        self.shape = shape

    def generate(self, seed: int, workdir: Path) -> list[Member]:
        s = self.shape
        members = []
        for k, sub in enumerate(np.random.SeedSequence(seed).generate_state(s.pool)):
            instance = model.generate_random(
                int(sub), s.nodes, s.links, s.routes, capacity_range=s.capacity_range, alpha=s.alpha
            )
            # the penalty fd-admm's adaptive rule picks at its first round
            start = solvers.equal_split_extract(instance)
            penalty = optimal_lambda(moduli(instance, default_objective(instance), start))
            member = Member(
                seed=int(sub),
                instance_path=workdir / f"{self.name}-{k}.instance.json",
                partition_path=workdir / f"{self.name}-{k}.partition.json",
                penalty=penalty,
            )
            model.save_instance(instance, member.instance_path)
            model.save_partition(model.balanced_assignment(instance, s.domains), member.partition_path)
            members.append(member)
        return members

    def setup(self, member: Member) -> dict:
        """Load the inputs as the CLI does and build what every solve needs."""
        instance = model.load_instance(member.instance_path)
        partition = model.build_partition(instance, model.load_partition(member.partition_path))
        instance.incidence  # noqa: B018 -- builds the cached copy layout
        return {"member": member, "instance": instance, "partition": partition, "objective": default_objective(instance)}

    def prepare(self, ctx: dict) -> None:
        """Untimed work a member needs before its first operation."""

    def op(self, ctx: dict) -> Outcome:
        raise NotImplementedError

    def check(self, ctx: dict, outcome: Outcome) -> list[str]:
        """Correctness gates on one operation's output."""
        raise NotImplementedError

    def quality(self, ctx: dict, outcome: Outcome) -> dict:
        """Figures that are fixed for an instance; computed once per member."""
        raise NotImplementedError

    def baselines(self, ctx: dict, rounds: int, reference: np.ndarray, with_fd: bool = True) -> dict:
        """lagr (and, if ``with_fd``, fd-admm) given ``rounds`` rounds on the
        same inputs.

        fd-admm is scored on the best feasible point served so far, from the
        equal-split start; lagr on the rates the links carry.
        """
        instance, partition, objective = ctx["instance"], ctx["partition"], ctx["objective"]
        budget = solvers.SolverConfig(tol_primal=0.0, tol_dual=0.0, max_iters=rounds, record_allocations=True)
        ref_util = utility(objective, reference)
        la = solvers.solve(instance, partition, "lagr", config=budget, objective=objective)
        figures = {
            "lagr_mean_gap": float(np.mean([
                relative_gap(utility(objective, carried_rates(instance, x)), ref_util) for x in la.allocations
            ])),
            "lagr_violated_pct": float(np.mean([row.violated_pct for row in la.trace])),
        }
        if with_fd:
            fd = solvers.solve(instance, partition, "fd-admm", config=budget, objective=objective)
            start = utility(objective, solvers.equal_split_extract(instance))
            figures["fd_mean_gap"] = float(np.mean(served_gaps(fd.trace, start, ref_util)))
            figures["wire_floats_per_round"] = float(fd.trace[-1].message_floats)
        return figures


class ColdSolve(Workload):
    """fd-admm with the adaptive penalty, from scratch to a residual tolerance."""

    name = "cold-solve"
    config = solvers.SolverConfig(tol_primal=1e-4, tol_dual=1e-4, max_iters=100_000)

    def op(self, ctx):
        result = solvers.solve(ctx["instance"], ctx["partition"], "fd-admm", config=self.config, objective=ctx["objective"])
        return Outcome(rounds=result.iterations, events=1, payload=result)

    def check(self, ctx, outcome):
        result = outcome.payload
        failures = [] if result.converged else [f"no convergence after {result.iterations} rounds"]
        return failures + gates.overloads(ctx["instance"], result.allocation)

    def quality(self, ctx, outcome):
        result = outcome.payload
        instance, objective = ctx["instance"], ctx["objective"]
        # warm-started from the converged state: same optimum, fewer rounds
        reference = solvers.reference_solution(instance, objective, warm_state=result.state)
        ref_util = utility(objective, reference)
        start = utility(objective, solvers.equal_split_extract(instance))
        figures = self.baselines(ctx, result.iterations, reference, with_fd=False)
        figures["fd_mean_gap"] = float(np.mean(served_gaps(result.trace, start, ref_util)))
        figures["gap"] = relative_gap(utility(objective, result.allocation), ref_util)
        figures["wire_floats_per_round"] = float(result.trace[-1].message_floats)
        return figures


def _record_served(served: list, call):
    """Run ``call`` keeping every best feasible point fd-admm hands to
    ``run_dynamic``; the allocation it serves is always one of them."""
    original = experiments.solve

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        if result.best_feasible is not None:
            served.append(result.best_feasible)
        return result

    experiments.solve = recording
    try:
        return call()
    finally:
        experiments.solve = original


class Retrack(Workload):
    """``run_dynamic`` for fd-admm, then lagr, sharing one reference cache.

    The per-event reference solves run once per instance, untimed, and every
    operation reuses their cache: their rounds vary from 300 to 1200 per
    event, and one event in several hundred needs some 50 000, which put
    the spread of a run's timings across seeds above 25%.  The timed
    operation is the two controllers tracking the events.
    """

    name = "retrack"
    attempts_per_op = 2
    amplitude = 0.75
    iters_per_event = 10

    def _scenario(self, member: Member) -> experiments.Scenario:
        return experiments.Scenario(
            amplitude=self.amplitude,
            n_events=self.shape.budget,
            iters_per_event=self.iters_per_event,
            seed=member.seed,
        )

    def prepare(self, ctx):
        member = ctx["member"]
        if member.references is None:
            cache = experiments.ReferenceCache()
            experiments.run_dynamic(ctx["instance"], ctx["partition"], "lagr", self._scenario(member), reference_cache=cache)
            member.references = cache

    def op(self, ctx):
        instance, partition, member = ctx["instance"], ctx["partition"], ctx["member"]
        scenario = self._scenario(member)
        served: list[np.ndarray] = []
        fd = _record_served(served, lambda: experiments.run_dynamic(
            instance, partition, "fd-admm", scenario, reference_cache=member.references
        ))
        lagr = experiments.run_dynamic(instance, partition, "lagr", scenario, reference_cache=member.references)
        rounds = len(fd.trace) + len(lagr.trace)
        return Outcome(rounds=rounds, events=scenario.n_events, payload=(fd, lagr, served))

    def check(self, ctx, outcome):
        fd, lagr, served = outcome.payload
        # run_dynamic serves the equal-split start until an iterate beats it
        served = [solvers.equal_split_extract(ctx["instance"])] + served
        failures = []
        for kind, allocations in (("served", served), ("reference", fd.references)):
            for t, allocation in enumerate(allocations):
                failures += [f"{kind} allocation {t}: {f}" for f in gates.overloads(ctx["instance"], allocation)]
        if not np.isfinite(fd.mean_gap) or not np.isfinite(lagr.mean_gap):
            failures.append("non-finite mean gap")
        return failures

    def quality(self, ctx, outcome):
        fd, lagr, _ = outcome.payload
        # the delivered allocation changes with every event: its gap is
        # fd-admm's mean served gap
        return {
            "gap": fd.mean_gap,
            "fd_mean_gap": fd.mean_gap,
            "lagr_mean_gap": lagr.mean_gap,
            "lagr_violated_pct": lagr.mean_violation,
            "wire_floats_per_round": float(fd.trace[-1].message_floats),
        }


class CadmmDykstra(Workload):
    """c-admm for a fixed step budget: every step projects with Dykstra."""

    name = "cadmm-dykstra"

    def op(self, ctx):
        config = solvers.SolverConfig(tol_primal=0.0, tol_dual=0.0, max_iters=self.shape.budget)
        result = solvers.solve(ctx["instance"], None, "c-admm", config=config, objective=ctx["objective"])
        return Outcome(rounds=result.iterations, events=1, payload=result)

    def check(self, ctx, outcome):
        result = outcome.payload
        failures = gates.overloads(ctx["instance"], result.allocation)
        if result.best_feasible is not None:
            failures += [f"best feasible: {f}" for f in gates.overloads(ctx["instance"], result.best_feasible)]
        return failures

    def quality(self, ctx, outcome):
        result = outcome.payload
        reference = solvers.reference_solution(ctx["instance"], ctx["objective"])
        figures = self.baselines(ctx, result.iterations, reference)
        figures["gap"] = relative_gap(
            utility(ctx["objective"], result.allocation), utility(ctx["objective"], reference)
        )
        return figures


class DomainSim(Workload):
    """Message-passing fd-admm: per-domain controllers for a fixed round count."""

    name = "domain-sim"

    @property
    def attempts_per_op(self):
        return self.shape.budget

    def setup(self, member):
        ctx = super().setup(member)
        ctx["controllers"] = simulator.build_controllers(
            ctx["instance"], ctx["partition"], ctx["objective"], member.penalty
        )
        return ctx

    def op(self, ctx):
        meter = simulator.OverheadMeter()
        for k in range(self.shape.budget):
            simulator.run_round(ctx["controllers"], k, meter=meter)
        return Outcome(rounds=self.shape.budget, events=1, payload=meter)

    def _replay(self, ctx):
        member = ctx["member"]
        if member.replay is None:
            member.replay = gates.replay_rounds(
                ctx["instance"], ctx["partition"], ctx["objective"], member.penalty, self.shape.budget
            )
        return member.replay

    def check(self, ctx, outcome):
        instance = ctx["instance"]
        link_values, enforced, _ = self._replay(ctx)
        # gathering raises SimulationError if replicas of a route disagree
        failures = gates.simulator_matches(ctx["controllers"], instance, link_values, enforced)
        failures += gates.metered_floats(instance, ctx["partition"], outcome.payload, self.shape.budget)
        # bit-identical to the replay, so this is the enforced allocation
        return failures + gates.overloads(instance, enforced)

    def quality(self, ctx, outcome):
        instance, objective = ctx["instance"], ctx["objective"]
        reference = solvers.reference_solution(instance, objective)
        ref_util = utility(objective, reference)
        _, enforced, extracts = self._replay(ctx)
        # the controllers enforce each round's extract one round later
        served = [utility(objective, x) for x in extracts[: self.shape.budget - 1]]
        start = utility(objective, solvers.equal_split_extract(instance))
        best = np.maximum.accumulate([start] + served)
        figures = self.baselines(ctx, self.shape.budget, reference, with_fd=False)
        figures["fd_mean_gap"] = float(np.mean([relative_gap(u, ref_util) for u in best]))
        figures["gap"] = relative_gap(utility(objective, enforced), ref_util)
        figures["wire_floats_per_round"] = outcome.payload.total_floats / self.shape.budget
        return figures


WORKLOADS = {w.name: w for w in (ColdSolve, Retrack, CadmmDykstra, DomainSim)}

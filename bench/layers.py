"""Per-layer metrics: which package calls the traced run wraps, and how one
operation's spans and counters become the named metrics.

Layers are the package's modules.  Times named ``*_self_s`` are span
durations minus the child spans named in :data:`METRICS`; other times are
the summed duration of the outermost spans of that name.
"""

from __future__ import annotations

import numpy as np

from fairalloc import experiments, fairness, model, numerics, projections, simulator, solvers, trace

from bench.tracer import Spans, Tracer

STEPS = {"round", "cadmm_step", "lagr_step"}


def targets(tracer: Tracer) -> list:
    """``(owner, attribute, make_wrapper)`` for every wrapped package call."""

    def span(name, size=None):
        return lambda fn: tracer.span(name, fn, size)

    def count(name, size=None):
        return lambda fn: tracer.counter(name, fn, size)

    return [
        (projections.BatchedLinkProjector, "apply", span("apply")),
        (projections, "project_polyhedron", span("polyhedron")),
        (projections, "project_capped_simplex", span("capped_simplex")),
        (fairness, "prox_values", span("prox", size=lambda args, _: np.size(args[2]))),
        (fairness, "utility", span("utility")),
        (fairness, "adapt_penalty", span("adapt_penalty")),
        (solvers, "fdadmm_round", span("round")),
        (solvers, "cadmm_step", span("cadmm_step")),
        (solvers, "lagr_step", span("lagr_step")),
        (solvers, "solve", span("solve")),
        (solvers, "ConsensusIndex", span("index")),
        (experiments, "run_dynamic", span("run_dynamic")),
        (simulator, "build_controllers", span("build")),
        (simulator, "run_round", span("run_round")),
        (simulator.ControllerNode, "compute_round", span("compute_round", size=lambda _, out: len(out))),
        (simulator.OverheadMeter, "add", count("meter", size=lambda args: args[4])),
        (model, "load_instance", span("load")),
        (model, "load_partition", span("load")),
        (model, "build_partition", span("partition")),
        (model, "is_feasible", span("is_feasible")),
        (model, "carried_rates", span("carried_rates")),
        (model, "link_loads", count("link_loads")),
        (numerics, "segment_sums", count("segment")),
        (numerics, "segment_mins", count("segment")),
        (numerics, "canonical_sum", count("canonical_sum")),
        (trace, "violated_percentage", span("violated_pct")),
        (trace, "TraceRow", count("rows")),
    ]


# name -> (unit, how to compute it from (spans, counts, instance))
METRICS = {
    "projections.batched_apply_s": ("s", lambda s, c, i: s.total_time({"apply"})),
    "projections.batched_apply_calls": ("count", lambda s, c, i: c["apply"]),
    "projections.polyhedron_s": ("s", lambda s, c, i: s.total_time({"polyhedron"})),
    "projections.capped_simplex_calls": ("count", lambda s, c, i: c["capped_simplex"]),
    "projections.capped_simplex_s": ("s", lambda s, c, i: s.total_time({"capped_simplex"})),
    # full Dykstra cycles: each visits every link that carries a route
    "projections.dykstra_cycles": (
        "count",
        lambda s, c, i: s.count_under({"capped_simplex"}, {"polyhedron"})
        / int(np.count_nonzero(np.diff(i.incidence.link_starts))),
    ),
    "fairness.prox_s": ("s", lambda s, c, i: s.total_time({"prox"})),
    "fairness.prox_calls": ("count", lambda s, c, i: c["prox"]),
    "fairness.prox_elements": ("count", lambda s, c, i: c["prox.size"]),
    "fairness.utility_s": ("s", lambda s, c, i: s.total_time({"utility"})),
    "fairness.adapt_penalty_s": ("s", lambda s, c, i: s.total_time({"adapt_penalty"})),
    "solvers.round_self_s": ("s", lambda s, c, i: s.self_time({"round"})),
    "solvers.cadmm_step_self_s": ("s", lambda s, c, i: s.self_time({"cadmm_step"})),
    "solvers.lagr_step_s": ("s", lambda s, c, i: s.total_time({"lagr_step"})),
    # solve minus its step calls: per-round feasibility, utility, trace rows
    "solvers.driver_self_s": ("s", lambda s, c, i: s.self_time({"solve"}, subtract=STEPS)),
    "solvers.index_builds": ("count", lambda s, c, i: c["index"]),
    "solvers.index_build_s": ("s", lambda s, c, i: s.total_time({"index"})),
    "solvers.iterations": ("count", lambda s, c, i: sum(c[name] for name in STEPS)),
    # run_dynamic minus its solves: weight draws and served-gap scoring
    "experiments.served_s": (
        "s",
        lambda s, c, i: s.self_time({"run_dynamic"}, subtract={"solve"}),
    ),
    "simulator.build_s": ("s", lambda s, c, i: s.total_time({"build"})),
    "simulator.compute_round_s": ("s", lambda s, c, i: s.total_time({"compute_round"})),
    "simulator.delivery_self_s": (
        "s",
        lambda s, c, i: s.self_time({"run_round"}, subtract={"compute_round"}),
    ),
    "simulator.messages": ("count", lambda s, c, i: c["compute_round.size"]),
    "simulator.wire_floats": ("count", lambda s, c, i: c["meter.size"]),
    "model.load_s": ("s", lambda s, c, i: s.total_time({"load"})),
    "model.partition_s": ("s", lambda s, c, i: s.total_time({"partition"})),
    "model.link_loads_calls": ("count", lambda s, c, i: c["link_loads"]),
    "model.is_feasible_s": ("s", lambda s, c, i: s.total_time({"is_feasible"})),
    "model.carried_rates_s": ("s", lambda s, c, i: s.total_time({"carried_rates"})),
    "numerics.segment_calls": ("count", lambda s, c, i: c["segment"]),
    "numerics.canonical_sum_calls": ("count", lambda s, c, i: c["canonical_sum"]),
    "trace.violated_pct_s": ("s", lambda s, c, i: s.total_time({"violated_pct"})),
    "trace.rows": ("count", lambda s, c, i: c["rows"]),
    "tracing.spans": ("count", lambda s, c, i: len(s)),
}

# measured by the harness from traced and untraced operation times
OVERHEAD = {"tracing.overhead_s": "s", "tracing.overhead_pct": "%"}


def layer_metrics(tracer: Tracer, instance) -> dict[str, float]:
    spans = Spans(tracer.spans())
    return {name: float(compute(spans, tracer.counts, instance)) for name, (_, compute) in METRICS.items()}

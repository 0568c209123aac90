"""Tests for the benchmark: run with ``python -m pytest bench/tests``."""

import numpy as np
import pytest

from fairalloc import fairness, simulator, solvers
from fairalloc.fairness import default_objective
from fairalloc.model import Instance, Link, Route, balanced_assignment, build_partition, generate_random
from fairalloc.solvers import SolverError

from bench import gates, layers
from bench.harness import END_TO_END, SHAPES, run_benchmark
from bench.tracer import Spans, Tracer, install, uninstall
from bench.workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_completes_at_tiny_size(name, trace, tmp_path):
    result = run_benchmark(name, seed=3, seconds=0.01, trace=trace, root=tmp_path, scale="tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = (
        {n for n in layers.METRICS} | set(layers.OVERHEAD) if trace else set(END_TO_END)
    )
    assert set(result["metrics"]) == expected
    values = [m["value"] for m in result["metrics"].values()]
    assert all(np.isfinite(values))
    if not trace:
        assert all(v > 0 for v in values)


def test_counts_repeat_across_traced_runs(tmp_path):
    runs = [run_benchmark("cold-solve", 5, 0.01, True, tmp_path, scale="tiny") for _ in range(2)]
    for name, (unit, _) in layers.METRICS.items():
        if unit == "count":
            assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name


def test_solver_errors_count_as_failures_without_aborting(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise SolverError("injected")

    monkeypatch.setattr(solvers, "solve", broken)
    result = run_benchmark("cold-solve", 0, 0.01, False, tmp_path, scale="tiny")
    assert result["attempted"] >= SHAPES["tiny"]["cold-solve"].pool
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


# ---------------------------------------------------------------------------
# gates


@pytest.fixture
def two_links():
    return Instance(
        links=(Link(0, 2.0), Link(1, 1.5)),
        routes=(Route(0, (0,), 1.0), Route(1, (0, 1), 2.0)),
        alpha=1.0,
    )


def test_feasibility_gate_trips_on_overloaded_allocation(two_links):
    assert gates.overloads(two_links, np.array([0.5, 1.5])) == []  # link 0 exactly full
    failures = gates.overloads(two_links, np.array([1.0, 1.25]))
    assert len(failures) == 1 and failures[0].startswith("link 0")
    assert gates.overloads(two_links, np.array([0.1, 1.6]))  # link 1 over
    assert gates.overloads(two_links, np.array([-0.1, 0.1]))
    assert gates.overloads(two_links, np.array([0.1]))


def _simulated(rounds):
    inst = generate_random(seed=7, n_nodes=10, n_links=16, n_routes=24, alpha=1.0)
    obj = default_objective(inst)
    part = build_partition(inst, balanced_assignment(inst, 3))
    controllers = simulator.build_controllers(inst, part, obj, penalty=0.7)
    meter = simulator.OverheadMeter()
    for k in range(rounds):
        simulator.run_round(controllers, k, meter=meter)
    link_values, enforced, _ = gates.replay_rounds(inst, part, obj, 0.7, rounds)
    return inst, part, controllers, meter, link_values, enforced


def test_simulator_gate_passes_and_trips_on_one_perturbed_copy():
    inst, part, controllers, meter, link_values, enforced = _simulated(rounds=5)
    assert gates.simulator_matches(controllers, inst, link_values, enforced) == []
    assert gates.metered_floats(inst, part, meter, 5) == []
    node = next(n for n in controllers if n.links)
    j = node.links[0]
    node.link_values[j][0] = np.nextafter(node.link_values[j][0], np.inf)
    failures = gates.simulator_matches(controllers, inst, link_values, enforced)
    assert failures == ["1 link copies differ from the vectorized rounds"]


def test_floats_formula_matches_solver_accounting_and_trips_on_a_lost_message():
    inst, part, _, meter, _, _ = _simulated(rounds=3)
    index = solvers.ConsensusIndex(inst, part)
    assert gates.expected_floats_per_round(inst, part.domain_of_link) == index.floats_per_round
    meter.per_round[1] -= 2
    assert len(gates.metered_floats(inst, part, meter, 3)) == 1


# ---------------------------------------------------------------------------
# tracer


def test_self_time_on_synthetic_nested_spans():
    spans = Spans([
        ("solve", 0.0, 10.0, -1),
        ("round", 1.0, 4.0, 0),
        ("apply", 1.5, 2.5, 1),
        ("round", 5.0, 7.0, 0),
        ("utility", 6.5, 8.0, 0),  # overlaps the second round by 0.5
        ("round", 20.0, 21.0, -1),  # outside any solve
    ])
    assert spans.self_time({"solve"}) == pytest.approx(10.0 - (3.0 + 2.0 + 1.5 - 0.5))
    assert spans.self_time({"solve"}, subtract={"round"}) == pytest.approx(5.0)
    assert spans.self_time({"round"}) == pytest.approx(2.0 + 2.0 + 1.0)
    assert spans.total_time({"round"}) == pytest.approx(6.0)
    assert spans.total_time({"round", "apply"}) == pytest.approx(6.0)
    assert spans.count_under({"round"}, {"solve"}) == 2
    assert spans.count_under({"apply"}, {"solve"}) == 1


def test_install_wraps_every_binding_and_uninstall_restores():
    original = fairness.prox_values
    assert solvers.prox_values is original and simulator.prox_values is original
    tracer = Tracer(enabled=True)
    undo = install([(fairness, "prox_values", lambda fn: tracer.span("prox", fn))])
    try:
        assert fairness.prox_values is not original
        assert solvers.prox_values is fairness.prox_values
        assert simulator.prox_values is fairness.prox_values
        simulator.prox_values(1.0, np.ones(3), np.zeros(3), 0.5)
        assert tracer.counts["prox"] == 1 and tracer.names == ["prox"]
    finally:
        uninstall(undo)
    assert fairness.prox_values is original
    assert solvers.prox_values is original and simulator.prox_values is original


def test_layer_targets_install_and_uninstall_cleanly():
    before = {(id(owner), attr): owner.__dict__[attr] for owner, attr, _ in layers.targets(Tracer())}
    undo = install(layers.targets(Tracer()))
    uninstall(undo)
    after = {(id(owner), attr): owner.__dict__[attr] for owner, attr, _ in layers.targets(Tracer())}
    assert before == after

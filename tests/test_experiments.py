import numpy as np
import pytest

from fairalloc.experiments import (
    ExperimentError,
    LoadPoint,
    ReferenceCache,
    Scenario,
    SweepPoint,
    evolve_weights,
    load_curve,
    mean_link_load,
    run_dynamic,
    sweep_penalty,
    write_load_curve,
    write_sweep,
)
from fairalloc.model import balanced_assignment, build_partition, generate_random
from fairalloc.fairness import FairnessObjective
from fairalloc.solvers import SolverConfig, fair_optimum


@pytest.fixture(scope="module")
def inst():
    return generate_random(seed=31, n_nodes=8, n_links=12, n_routes=16, alpha=1.0)


def test_scenario_validation():
    with pytest.raises(ExperimentError, match="amplitude"):
        Scenario(amplitude=1.5)
    with pytest.raises(ExperimentError, match="amplitude"):
        Scenario(amplitude=-0.1)
    with pytest.raises(ExperimentError):
        Scenario(amplitude=0.5, n_events=0)
    with pytest.raises(ExperimentError):
        Scenario(amplitude=0.5, iters_per_event=0)


def test_evolve_weights_bounds():
    rng = np.random.default_rng(0)
    w = np.array([1.0, 4.0, 10.0])
    for a in (0.0, 0.3, 1.0):
        out = evolve_weights(w, a, rng)
        assert np.all(out >= (1 - a) * w - 1e-12)
        assert np.all(out <= (1 + a) * w + 1e-12)
    np.testing.assert_array_equal(evolve_weights(w, 0.0, rng), w)


def test_run_dynamic_shapes_and_feasibility(inst):
    part = build_partition(inst, balanced_assignment(inst, 3))
    scenario = Scenario(amplitude=0.25, n_events=5, iters_per_event=6, seed=2)
    result = run_dynamic(inst, part, "fd-admm", scenario)
    assert result.algorithm == "fd-admm"
    assert len(result.trace) == 5 * 6
    assert result.per_event_gap.shape == (5,)
    assert result.first_gap_per_event.shape == (5,)
    assert len(result.weights_history) == 5
    assert len(result.references) == 5
    # consensus extracts never violate capacity
    assert result.mean_violation == 0.0
    assert np.all(result.per_event_violation == 0.0)
    assert np.isfinite(result.mean_gap)
    # events are stamped into the trace rows
    assert sorted({row.event for row in result.trace}) == [1, 2, 3, 4, 5]


def test_run_dynamic_still_weights_tracks_optimum(inst):
    """amplitude 0 re-solves the same problem: the chase keeps improving, so
    each event starts no farther from the reference than the previous one."""
    scenario = Scenario(amplitude=0.0, n_events=5, iters_per_event=8, seed=3)
    result = run_dynamic(inst, None, "fd-admm", scenario)
    fg = result.first_gap_per_event
    # every event draws the same weights and so scores against the same
    # reference; the slack allows for rounding in the gaps
    assert np.all(np.diff(fg) <= 1e-6)
    assert result.per_event_gap[-1] <= result.per_event_gap[0] + 1e-6


def test_run_dynamic_warm_start_beats_cold(inst):
    """Continuing from the tracking state reaches a smaller first-iteration
    gap than restarting from scratch for most events."""
    from fairalloc.solvers import solve
    from fairalloc.trace import relative_gap
    from fairalloc.fairness import utility

    scenario = Scenario(amplitude=0.25, n_events=6, iters_per_event=5, seed=4)
    result = run_dynamic(inst, None, "fd-admm", scenario)
    wins = 0
    for t, (w, ref) in enumerate(zip(result.weights_history, result.references)):
        obj = FairnessObjective(alpha=1.0, weights=w)
        cold = solve(
            inst,
            algorithm="fd-admm",
            config=SolverConfig(penalty="adaptive", tol_primal=0.0, tol_dual=0.0, max_iters=1),
            objective=obj,
            reference=ref,
        )
        if result.first_gap_per_event[t] <= cold.trace[0].gap + 1e-12:
            wins += 1
    assert wins >= int(0.8 * scenario.n_events)


def test_reference_cache_shared_across_algorithms(inst):
    scenario = Scenario(amplitude=0.3, n_events=4, iters_per_event=5, seed=5)
    cache = ReferenceCache()
    fd = run_dynamic(inst, None, "fd-admm", scenario, reference_cache=cache)
    la = run_dynamic(inst, None, "lagr", scenario, reference_cache=cache)
    for a, b in zip(fd.references, la.references):
        assert np.array_equal(a, b)  # bitwise: second run hit the cache
    for a, b in zip(fd.weights_history, la.weights_history):
        assert np.array_equal(a, b)  # same seed, same draw sequence


def test_run_dynamic_references_are_fair_optima(inst):
    scenario = Scenario(amplitude=0.5, n_events=3, iters_per_event=4, seed=6)
    result = run_dynamic(inst, None, "fd-admm", scenario)
    for w, ref in zip(result.weights_history, result.references):
        expected = fair_optimum(inst, FairnessObjective(alpha=inst.alpha, weights=w))
        assert np.array_equal(ref, expected)


def test_reference_cache_rejects_stale_weights():
    cache = ReferenceCache()
    w = np.array([1.0, 2.0])
    cache.put(1, w, np.array([0.5, 0.5]))
    assert cache.get(1, w) is not None
    assert cache.get(1, w * 2) is None
    assert cache.get(2, w) is None


def test_sweep_penalty_points(inst):
    grid = [0.03, 0.3, 3.0]
    points = sweep_penalty(inst, grid, tol=1e-4, max_iters=30_000)
    assert len(points) == 4
    fixed = points[:3]
    assert [p.penalty for p in fixed] == grid
    assert all(p.mode == "fixed" for p in fixed)
    assert points[3].mode == "adaptive"
    assert points[3].converged
    best_fixed = min(p.iterations for p in fixed if p.converged)
    assert points[3].iterations <= 5 * best_fixed


def test_load_curve_points():
    instances = [
        generate_random(seed=s, n_nodes=8, n_links=12, n_routes=n, alpha=1.0)
        for s, n in [(1, 8), (2, 16), (3, 24)]
    ]
    points = load_curve(instances, tol=1e-3)
    assert [p.n_routes for p in points] == [8, 16, 24]
    assert all(p.converged for p in points)
    loads = [p.mean_link_load for p in points]
    assert loads == sorted(loads)  # more routes on the same graph = denser links


def test_mean_link_load(tiny_instance):
    assert mean_link_load(tiny_instance) == 1.5


def test_csv_writers_end_rows_with_newline(tmp_path):
    sweep = tmp_path / "sweep.csv"
    write_sweep([SweepPoint("fixed", 0.5, 12, True), SweepPoint("adaptive", 2.0, 30, False)], sweep)
    assert sweep.read_bytes() == b"mode,penalty,iterations,converged\nfixed,0.5,12,1\nadaptive,2,30,0\n"
    curve = tmp_path / "curve.csv"
    write_load_curve([LoadPoint(1.5, 8, 40, True)], curve)
    assert curve.read_bytes() == b"mean_link_load,n_routes,iterations,converged\n1.5,8,40,1\n"

import dataclasses

import numpy as np
import pytest

from fairalloc.fairness import FairnessObjective, PenaltyState, default_objective, utility
from fairalloc.model import (
    Instance,
    Link,
    Partition,
    Route,
    balanced_assignment,
    build_partition,
    generate_random,
    is_feasible,
    single_domain,
)
from fairalloc.numerics import canonical_sum, segment_sums
from fairalloc.solvers import (
    ALGORITHMS,
    ConsensusIndex,
    SolverConfig,
    SolverError,
    cadmm_step,
    equal_split_extract,
    fdadmm_round,
    initial_cadmm_state,
    initial_lagr_state,
    initial_state,
    lagr_step,
    reference_solution,
    solve,
)


def one_link_instance(cap=1.0, weights=(1.0,), alpha=1.0):
    routes = tuple(Route(r, (0,), weight=w) for r, w in enumerate(weights))
    return Instance(links=(Link(0, cap),), routes=routes, alpha=alpha)


# ---------------------------------------------------------------------------
# consensus iteration mechanics

def test_initial_state_is_feasible_equal_split(small_instance):
    idx = ConsensusIndex(small_instance, single_domain(small_instance))
    state = initial_state(idx, PenaltyState(value=1.0, frozen=True))
    assert is_feasible(small_instance, state.extract)
    # each copy vector saturates its link exactly
    for j in range(small_instance.n_links):
        s, e = idx.layout.link_starts[j], idx.layout.link_starts[j + 1]
        if e > s:
            assert canonical_sum(state.link_values[s:e]) <= small_instance.capacities[j]
    # on the instance of acceptance criterion 9 the unprojected equal split is
    # over a cap; the start is the projected split, the one served, under
    # every partition
    inst = generate_random(seed=0, n_nodes=100, n_links=300, n_routes=200, capacity_range=(5.0, 50.0), alpha=1.0)
    split = equal_split_extract(inst)
    for domains in (1, 4, 16):
        idx = ConsensusIndex(inst, build_partition(inst, balanced_assignment(inst, domains)))
        state = initial_state(idx, PenaltyState(value=1.0, frozen=True))
        assert is_feasible(inst, state.extract), domains
        assert np.array_equal(state.extract, split), domains
        assert np.array_equal(state.route_values, split) and np.array_equal(state.consensus, split), domains


def test_single_route_fixed_point():
    """One link, one route, log utility, penalty 1: the stationary point has
    value 1 on every copy and duals (-1, +1)."""
    inst = one_link_instance()
    obj = default_objective(inst)
    idx = ConsensusIndex(inst, single_domain(inst))
    state = initial_state(idx, PenaltyState(value=1.0, frozen=True))
    for _ in range(200):
        fdadmm_round(state, obj)
    np.testing.assert_allclose(state.extract, [1.0], atol=1e-9)
    np.testing.assert_allclose(state.consensus, [1.0], atol=1e-9)
    np.testing.assert_allclose(state.route_values, [1.0], atol=1e-9)
    np.testing.assert_allclose(state.route_duals, [1.0], atol=1e-8)
    np.testing.assert_allclose(state.link_duals, [-1.0], atol=1e-8)


def test_dual_sum_invariant_stays_zero(small_instance):
    """The per-route sum of all copy duals (links + route copy) starts at 0
    and is preserved by every round up to roundoff."""
    part = build_partition(small_instance, balanced_assignment(small_instance, 3))
    idx = ConsensusIndex(small_instance, part)
    obj = default_objective(small_instance)
    state = initial_state(idx, PenaltyState(value=0.7, frozen=True))
    for k in range(120):
        fdadmm_round(state, obj)
        per_route = segment_sums(state.link_duals[idx.perm_rd], idx.route_starts_rd)
        total = per_route + state.route_duals
        assert np.max(np.abs(total)) < 1e-10, f"round {k}"


def test_every_iterate_feasible(small_instance):
    part = build_partition(small_instance, balanced_assignment(small_instance, 2))
    idx = ConsensusIndex(small_instance, part)
    obj = default_objective(small_instance)
    state = initial_state(idx, PenaltyState(value=1.0, frozen=True))
    for _ in range(150):
        fdadmm_round(state, obj)
        assert is_feasible(small_instance, state.extract)  # zero tolerance


def test_utility_improves_from_start(small_instance):
    result = solve(small_instance, config=SolverConfig(tol_primal=1e-7, tol_dual=1e-7))
    obj = default_objective(small_instance)
    utils = [row.objective_value for row in result.trace]
    assert utils[-1] > utils[0]
    # anytime behavior: after the burn-in the utility stays near its peak
    tail = np.array(utils[len(utils) // 2 :])
    assert np.min(tail) >= np.max(tail) - 0.05 * abs(np.max(tail))


# ---------------------------------------------------------------------------
# algorithm agreement

def test_weighted_single_link_closed_form():
    # log utility on one shared link: x_r = w_r * C / sum(w)
    w = (1.0, 2.0, 5.0)
    inst = one_link_instance(cap=4.0, weights=w, alpha=1.0)
    want = 4.0 * np.array(w) / sum(w)
    cfg = SolverConfig(tol_primal=1e-9, tol_dual=1e-9)
    for algorithm in ("fd-admm", "c-admm"):
        got = solve(inst, algorithm=algorithm, config=cfg).allocation
        np.testing.assert_allclose(got, want, atol=1e-6, err_msg=algorithm)
    lagr = solve(
        inst, algorithm="lagr", config=SolverConfig(penalty=1.0, tol_primal=1e-10, tol_dual=1e-10, max_iters=10_000)
    ).allocation
    np.testing.assert_allclose(lagr, want, atol=1e-4)


def test_algorithms_agree_on_network():
    inst = generate_random(seed=21, n_nodes=8, n_links=12, n_routes=10, alpha=2.0)
    cfg = SolverConfig(tol_primal=1e-8, tol_dual=1e-8)
    fd = solve(inst, algorithm="fd-admm", config=cfg)
    ca = solve(inst, algorithm="c-admm", config=cfg)
    la = solve(
        inst, algorithm="lagr", config=SolverConfig(penalty=1.0, tol_primal=1e-9, tol_dual=1e-9, max_iters=200_000)
    )
    assert fd.converged and ca.converged
    np.testing.assert_allclose(ca.allocation, fd.allocation, atol=1e-3)
    np.testing.assert_allclose(la.allocation, fd.allocation, atol=1e-3)


def test_partition_choice_does_not_change_limit(small_instance):
    cfg = SolverConfig(tol_primal=1e-9, tol_dual=1e-9)
    base = solve(small_instance, partition=None, config=cfg).allocation
    for P in (2, 3, 4):
        part = build_partition(small_instance, balanced_assignment(small_instance, P))
        got = solve(small_instance, partition=part, config=cfg).allocation
        np.testing.assert_allclose(got, base, atol=1e-6)


def test_equal_split_extract_is_exactly_feasible():
    """C/n summed n times can round above C; the served start must not."""
    instances = [generate_random(seed=s, n_nodes=100, n_links=300, n_routes=200) for s in range(40)]
    # the instance of acceptance criterion 9
    instances.append(
        generate_random(seed=0, n_nodes=100, n_links=300, n_routes=200, capacity_range=(5.0, 50.0), alpha=1.0)
    )
    for k, inst in enumerate(instances):
        split = equal_split_extract(inst)
        assert is_feasible(inst, split), k
        members = np.bincount(inst.incidence.copy_link, minlength=inst.n_links)
        raw = [min(inst.capacities[j] / members[j] for j in route.links) for route in inst.routes]
        np.testing.assert_allclose(split, raw, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# c-admm specifics

def test_cadmm_extract_always_feasible(small_instance):
    # on the instance of acceptance criterion 9 the unprojected equal split
    # and every polyhedron projection of c-admm are over a cap by a few ulps
    criterion_9 = generate_random(
        seed=0, n_nodes=100, n_links=300, n_routes=200, capacity_range=(5.0, 50.0), alpha=1.0
    )
    for inst, steps in ((small_instance, 60), (criterion_9, 12)):
        obj = default_objective(inst)
        idx = ConsensusIndex(inst, single_domain(inst))
        state = initial_cadmm_state(idx, PenaltyState(value=1.0, frozen=True))
        for step in range(steps + 1):
            if step:
                cadmm_step(state, inst, obj)
            assert is_feasible(inst, state.extract), step
            assert np.all(state.extract >= 0.0) and np.all(state.extract <= np.maximum(state.z, 0.0)), step


def test_cadmm_converges_where_dykstra_iterate_stalls():
    # a Dykstra stop rule that watched only the iterate returned points up to
    # 1.24 from the projection here, and c-admm never converged
    inst = generate_random(seed=206, n_nodes=8, n_links=14, n_routes=7, alpha=0.5)
    config = SolverConfig(tol_primal=1e-8, tol_dual=1e-8, max_iters=2000)
    result = solve(inst, None, "c-admm", config=config)
    assert result.converged


# ---------------------------------------------------------------------------
# dual-gradient baseline specifics

def test_lagr_multipliers_stay_positive(small_instance):
    idx = ConsensusIndex(small_instance, single_domain(small_instance))
    obj = default_objective(small_instance)
    state = initial_lagr_state(idx, PenaltyState(value=1.0, frozen=True))
    for _ in range(500):
        lagr_step(state, idx, obj)
        assert np.all(state.multipliers > 0)


def test_lagr_rejects_alpha_zero():
    inst = one_link_instance(alpha=0.0)
    with pytest.raises(SolverError, match="alpha > 0"):
        solve(inst, algorithm="lagr", config=SolverConfig(penalty=1.0))


def test_lagr_reports_last_iterate_even_infeasible():
    inst = generate_random(seed=2, n_nodes=6, n_links=9, n_routes=12, alpha=1.0)
    result = solve(inst, algorithm="lagr", config=SolverConfig(penalty=1.0, max_iters=3))
    np.testing.assert_array_equal(result.allocation, result.state.x)


# ---------------------------------------------------------------------------
# driver behavior

def _state_arrays(state) -> dict[str, np.ndarray]:
    return {
        f.name: getattr(state, f.name)
        for f in dataclasses.fields(state)
        if isinstance(getattr(state, f.name), np.ndarray)
    }


def test_warm_start_with_fixed_penalty_is_exact_continuation(small_instance):
    cfg = lambda iters: SolverConfig(penalty=0.9, tol_primal=0.0, tol_dual=0.0, max_iters=iters)
    part = build_partition(small_instance, balanced_assignment(small_instance, 2))
    for algorithm in ALGORITHMS:
        full = solve(small_instance, partition=part, algorithm=algorithm, config=cfg(60))
        first = solve(small_instance, partition=part, algorithm=algorithm, config=cfg(30))
        second = solve(
            small_instance, partition=part, algorithm=algorithm, config=cfg(30), warm_state=first.state
        )
        assert second.state.iteration == 60, algorithm
        assert second.state.index is first.state.index, algorithm
        continued, direct = _state_arrays(second.state), _state_arrays(full.state)
        assert continued.keys() == direct.keys()
        for name in direct:
            np.testing.assert_array_equal(continued[name], direct[name], err_msg=f"{algorithm} {name}")


def test_warm_start_rescales_duals_on_penalty_change(small_instance):
    obj = default_objective(small_instance)
    steps = {
        "fd-admm": (("link_duals", "route_duals"), lambda state: fdadmm_round(state, obj)),
        "c-admm": (("dual",), lambda state: cadmm_step(state, small_instance, obj)),
    }
    for algorithm, (dual_names, step) in steps.items():
        first = solve(
            small_instance,
            algorithm=algorithm,
            config=SolverConfig(penalty=1.0, tol_primal=0.0, tol_dual=0.0, max_iters=20),
        )
        carried = {name: arr.copy() for name, arr in _state_arrays(first.state).items()}
        second = solve(
            small_instance,
            algorithm=algorithm,
            config=SolverConfig(penalty=2.0, tol_primal=0.0, tol_dual=0.0, max_iters=1),
            warm_state=first.state,
        )
        # the warm state itself is untouched
        for name, arr in _state_arrays(first.state).items():
            np.testing.assert_array_equal(arr, carried[name], err_msg=f"{algorithm} {name}")
        # by hand: a copy with its duals times new/old = 2.0, then one step
        by_hand = dataclasses.replace(first.state, **{n: a.copy() for n, a in carried.items()})
        for name in dual_names:
            getattr(by_hand, name)[...] *= 2.0
        by_hand.penalty = PenaltyState(value=2.0, tau=30, frozen=True)
        step(by_hand)
        assert second.state.iteration == by_hand.iteration == 21
        assert second.state.residuals == by_hand.residuals
        assert second.state.penalty == by_hand.penalty
        for name, arr in _state_arrays(by_hand).items():
            np.testing.assert_array_equal(getattr(second.state, name), arr, err_msg=f"{algorithm} {name}")


def test_solve_validates():
    inst = one_link_instance()
    with pytest.raises(SolverError, match="unknown algorithm"):
        solve(inst, algorithm="sgd")
    with pytest.raises(SolverError, match="weight count"):
        solve(inst, objective=FairnessObjective(alpha=1.0, weights=np.ones(3)))
    with pytest.raises(SolverError, match="adaptive"):
        solve(one_link_instance(alpha=0.0))  # adaptive penalty needs alpha > 0
    with pytest.raises(SolverError):
        SolverConfig(penalty=-1.0)
    with pytest.raises(SolverError):
        SolverConfig(penalty="auto")
    with pytest.raises(SolverError):
        SolverConfig(max_iters=0)
    with pytest.raises(SolverError):
        SolverConfig(time_budget=0.0)


def test_trace_rows_are_complete(small_instance):
    result = solve(small_instance, config=SolverConfig(tol_primal=1e-4, tol_dual=1e-4), event_index=7)
    assert len(result.trace) == result.iterations
    idx = ConsensusIndex(small_instance, single_domain(small_instance))
    for row in result.trace:
        assert row.event == 7
        assert row.algorithm == "fd-admm"
        assert row.message_floats == idx.floats_per_round
        assert row.violated_pct == 0.0  # consensus extract never violates
    assert [row.iteration for row in result.trace] == list(range(1, result.iterations + 1))


def test_converged_residuals_meet_tolerance(small_instance):
    cfg = SolverConfig(tol_primal=1e-6, tol_dual=1e-6)
    result = solve(small_instance, config=cfg)
    assert result.converged
    assert result.residuals.primal <= 1e-6 and result.residuals.dual <= 1e-6


def test_best_feasible_tracking(small_instance):
    result = solve(small_instance, config=SolverConfig(tol_primal=0.0, tol_dual=0.0, max_iters=40))
    assert result.best_feasible is not None
    assert is_feasible(small_instance, result.best_feasible)
    obj = default_objective(small_instance)
    assert result.best_utility == utility(obj, result.best_feasible)
    # unconverged run reports the best feasible point, not the last iterate
    np.testing.assert_array_equal(result.allocation, result.best_feasible)


def test_adaptive_penalty_freezes(small_instance):
    result = solve(small_instance, config=SolverConfig(penalty="adaptive", adapt_tau=10, tol_primal=0.0, tol_dual=0.0, max_iters=25))
    assert result.state.penalty.frozen
    assert result.state.penalty.value > 0


def test_reference_solution_accuracy_and_error():
    inst = generate_random(seed=13, n_nodes=7, n_links=10, n_routes=8, alpha=1.0)
    ref = reference_solution(inst, tol=1e-6)
    assert is_feasible(inst, ref)
    with pytest.raises(SolverError, match="stalled"):
        reference_solution(inst, tol=1e-12, max_iters=5)


def test_reference_solution_deterministic():
    inst = generate_random(seed=14, n_nodes=7, n_links=10, n_routes=8, alpha=2.0)
    a = reference_solution(inst)
    b = reference_solution(inst)
    np.testing.assert_array_equal(a, b)


def test_algorithm_registry():
    assert set(ALGORITHMS) == {"fd-admm", "c-admm", "lagr"}


def test_warm_state_of_another_instance_is_rejected():
    a = generate_random(seed=21, n_nodes=8, n_links=12, n_routes=10, alpha=1.0)
    b = generate_random(seed=22, n_nodes=8, n_links=12, n_routes=10, alpha=1.0)
    cfg = SolverConfig(penalty=1.0, tol_primal=0.0, tol_dual=0.0, max_iters=3)
    for algorithm in ALGORITHMS:
        state = solve(a, algorithm=algorithm, config=cfg).state
        with pytest.raises(SolverError, match="another instance"):
            solve(b, algorithm=algorithm, config=cfg, warm_state=state)
        # an equal instance that is a different object continues the state
        twin = generate_random(seed=21, n_nodes=8, n_links=12, n_routes=10, alpha=1.0)
        assert solve(twin, algorithm=algorithm, config=cfg, warm_state=state).iterations == 6


def test_warm_state_of_another_partition_is_rejected():
    inst = generate_random(seed=3, n_nodes=12, n_links=20, n_routes=30, alpha=1.0)
    p2 = build_partition(inst, balanced_assignment(inst, 2))
    p4 = build_partition(inst, balanced_assignment(inst, 4))
    cfg = SolverConfig(penalty=1.0, tol_primal=0.0, tol_dual=0.0, max_iters=3)
    assert ConsensusIndex(inst, p2).floats_per_round == 72
    assert ConsensusIndex(inst, p4).floats_per_round == 120
    for algorithm in ALGORITHMS:
        state = solve(inst, p2, algorithm, config=cfg).state
        with pytest.raises(SolverError, match="another partition"):
            solve(inst, p4, algorithm, config=cfg, warm_state=state)
        # an equal partition that is a different object, or none, continues
        # the state on its own partition
        twin = build_partition(inst, balanced_assignment(inst, 2))
        for partition in (twin, None):
            result = solve(inst, partition, algorithm, config=cfg, warm_state=state)
            assert result.iterations == 6
            assert result.trace[-1].message_floats == (72 if algorithm == "fd-admm" else 0)


def test_warm_state_of_another_algorithm_is_rejected(small_instance):
    cfg = SolverConfig(penalty=1.0, tol_primal=0.0, tol_dual=0.0, max_iters=2)
    states = {name: solve(small_instance, algorithm=name, config=cfg).state for name in ALGORITHMS}
    for algorithm in ALGORITHMS:
        for other, state in states.items():
            if other != algorithm:
                with pytest.raises(SolverError, match=f"{algorithm} cannot continue"):
                    solve(small_instance, algorithm=algorithm, config=cfg, warm_state=state)


def test_partition_link_count_must_match_instance(small_instance):
    n = small_instance.n_links
    for count in (n - 1, n + 1):
        part = Partition(domain_of_link=(1,) * count, n_domains=1)
        with pytest.raises(SolverError, match=f"partition maps {count} links, instance has {n}"):
            ConsensusIndex(small_instance, part)
        with pytest.raises(SolverError, match="partition maps"):
            solve(small_instance, part)

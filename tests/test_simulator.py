import numpy as np
import pytest

from fairalloc.fairness import PenaltyState, default_objective
from fairalloc.model import (
    balanced_assignment,
    build_partition,
    generate_random,
    is_feasible,
)
from fairalloc.simulator import (
    OverheadMeter,
    SimulationError,
    build_controllers,
    export_message_log,
    gather_allocation,
    gather_link_values,
    gather_route_replicas,
    inject_weight_update,
    measure_overhead,
    run_round,
)
from fairalloc.solvers import ConsensusIndex, fdadmm_round, initial_state


def make_setup(seed=11, domains=4, alpha=2.0, penalty=0.8, n_routes=30):
    inst = generate_random(seed=seed, n_nodes=12, n_links=20, n_routes=n_routes, alpha=alpha)
    part = build_partition(inst, balanced_assignment(inst, domains))
    obj = default_objective(inst)
    idx = ConsensusIndex(inst, part)
    state = initial_state(idx, PenaltyState(value=penalty, frozen=True))
    nodes = build_controllers(inst, part, obj, penalty=penalty)
    return inst, part, obj, idx, state, nodes


def test_matches_vectorized_solver_bitwise():
    """40 rounds of message passing reproduce the vectorized iteration exactly
    on every prox branch (the closed form at alpha 0, Newton at 0.5 and 2)
    over one, four and nine domains; the enforced allocation lags the
    extract by the one round a message is in flight."""
    for alpha in (0.0, 0.5, 2.0):
        for domains in (1, 4, 9):
            inst, part, obj, idx, state, nodes = make_setup(domains=domains, alpha=alpha)
            prev_extract = state.extract.copy()
            for k in range(40):
                fdadmm_round(state, obj)
                run_round(nodes, k)
                assert np.array_equal(gather_allocation(nodes, inst.n_routes), prev_extract)
                for attr in ("consensus", "route_values", "route_duals"):
                    assert np.array_equal(
                        gather_route_replicas(nodes, inst.n_routes, attr), getattr(state, attr)
                    ), (alpha, domains, k, attr)
                assert np.array_equal(gather_link_values(nodes, inst), state.link_values)
                prev_extract = state.extract.copy()


def test_matches_vectorized_solver_log_utility_many_domains():
    inst, part, obj, idx, state, nodes = make_setup(seed=3, domains=6, alpha=1.0, penalty=1.3)
    for k in range(30):
        fdadmm_round(state, obj)
        run_round(nodes, k)
        assert np.array_equal(gather_link_values(nodes, inst), state.link_values)


def test_enforced_allocation_always_feasible():
    inst, part, obj, idx, state, nodes = make_setup(seed=5, domains=3)
    for k in range(80):
        run_round(nodes, k)
        assert is_feasible(inst, gather_allocation(nodes, inst.n_routes))


def test_replica_divergence_is_detected():
    inst, part, obj, idx, state, nodes = make_setup(seed=7, domains=3)
    run_round(nodes, 0)
    # corrupt one replica of a route held by several domains
    for node in nodes:
        for i, r in enumerate(node.routes):
            holders = sum(int(r) in n2.routes for n2 in nodes)
            if holders > 1:
                node.route_values[i] += 1e-9
                with pytest.raises(SimulationError, match="diverged"):
                    gather_route_replicas(nodes, inst.n_routes, "route_values")
                return
    pytest.skip("no shared route in this partition")


def test_overhead_measured_equals_predicted():
    inst, part, obj, idx, state, nodes = make_setup(seed=9, domains=4)
    report = measure_overhead(inst, part, obj, penalty=0.8, rounds=17)
    assert report.rounds == 17
    assert report.floats_per_round == idx.floats_per_round
    assert report.total_floats == 17 * idx.floats_per_round
    # pair symmetry: p->q and q->p carry the same number of floats
    for (p, q), n in report.per_pair.items():
        assert report.per_pair[(q, p)] == n


def test_measure_overhead_builds_one_index(monkeypatch):
    from fairalloc import simulator

    inst, part, obj, idx, state, nodes = make_setup(seed=9, domains=4)
    builds = []

    def counted(*args):
        builds.append(args)
        return ConsensusIndex(*args)

    monkeypatch.setattr(simulator, "ConsensusIndex", counted)
    measure_overhead(inst, part, obj, penalty=0.8, rounds=2)
    assert len(builds) == 1


def test_single_domain_sends_nothing():
    inst = generate_random(seed=4, n_nodes=8, n_links=12, n_routes=10, alpha=1.0)
    part = build_partition(inst, {j: 1 for j in range(inst.n_links)})
    obj = default_objective(inst)
    report = measure_overhead(inst, part, obj, penalty=1.0, rounds=5)
    assert report.floats_per_round == 0
    assert report.total_floats == 0


def test_meter_counts_two_floats_per_message():
    inst, part, obj, idx, state, nodes = make_setup(seed=11)
    meter = OverheadMeter()
    log = []
    run_round(nodes, 0, meter=meter, log=log)
    assert meter.total_floats == 2 * len(log)
    assert meter.per_round[0] == idx.floats_per_round


def test_message_log_export(tmp_path):
    inst, part, obj, idx, state, nodes = make_setup(seed=11)
    log = []
    run_round(nodes, 0, log=log)
    run_round(nodes, 1, log=log)
    path = tmp_path / "messages.csv"
    export_message_log(log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,sender,receiver,route,value,feasible_value"
    assert len(lines) == 1 + len(log)
    first = lines[1].split(",")
    assert len(first) == 6
    int(first[0]), int(first[1]), int(first[2]), int(first[3])
    float(first[4]), float(first[5])


def test_inject_weight_update():
    inst, part, obj, idx, state, nodes = make_setup(seed=13, domains=3)
    new_w = inst.weights * 1.5
    inject_weight_update(nodes, new_w)
    for node in nodes:
        np.testing.assert_array_equal(node.weights, new_w[node.routes])
    with pytest.raises(SimulationError, match="positive"):
        inject_weight_update(nodes, np.zeros(inst.n_routes))
    with pytest.raises(SimulationError, match="shorter"):
        inject_weight_update(nodes, np.ones(2))


def test_weight_update_matches_vectorized_restart():
    """After a weight swap, message passing keeps tracking a vectorized run
    whose objective changed at the same round."""
    from fairalloc.fairness import FairnessObjective

    inst, part, obj, idx, state, nodes = make_setup(seed=15, domains=3, alpha=1.0, penalty=1.0)
    for k in range(10):
        fdadmm_round(state, obj)
        run_round(nodes, k)
    new_w = inst.weights * np.linspace(0.6, 1.4, inst.n_routes)
    obj2 = FairnessObjective(alpha=1.0, weights=new_w)
    inject_weight_update(nodes, new_w)
    for k in range(10, 25):
        fdadmm_round(state, obj2)
        run_round(nodes, k)
        assert np.array_equal(gather_link_values(nodes, inst), state.link_values)


def test_build_controllers_validates():
    inst = generate_random(seed=4, n_nodes=8, n_links=12, n_routes=10, alpha=1.0)
    part = build_partition(inst, balanced_assignment(inst, 2))
    obj = default_objective(inst)
    with pytest.raises(SimulationError, match="penalty"):
        build_controllers(inst, part, obj, penalty=0.0)


def _shared_routes(part):
    """(p, q) -> ascending routes held by both domains, p != q."""
    shared = {}
    for r, holders in enumerate(part.domains_of_route):
        for p in holders[1:]:
            for q in holders[1:]:
                if p != q:
                    shared.setdefault((p, q), []).append(r)
    return shared


def test_routeless_domain_computes_and_sends_nothing():
    """A domain owning only untraversed links stays out of every exchange,
    and the others still match the vectorized solver bit for bit."""
    inst = generate_random(seed=5, n_nodes=12, n_links=30, n_routes=10, alpha=2.0)
    carrying = {j for route in inst.routes for j in route.links}
    assignment = balanced_assignment(inst, 3)
    for j in range(inst.n_links):
        if j not in carrying:
            assignment[j] = 4
    part = build_partition(inst, assignment)
    assert part.routes_by_domain[4] == ()
    obj = default_objective(inst)
    state = initial_state(ConsensusIndex(inst, part), PenaltyState(value=0.8, frozen=True))
    nodes = build_controllers(inst, part, obj, penalty=0.8)
    meter = OverheadMeter()
    for k in range(10):
        fdadmm_round(state, obj)
        run_round(nodes, k, meter=meter)
        assert np.array_equal(gather_link_values(nodes, inst), state.link_values)
        assert np.array_equal(gather_route_replicas(nodes, inst.n_routes, "consensus"), state.consensus)
        assert np.array_equal(gather_route_replicas(nodes, inst.n_routes, "route_values"), state.route_values)
    assert meter.per_pair
    assert all(4 not in pair for pair in meter.per_pair)


def test_build_controllers_rejects_mismatched_objective():
    from fairalloc.fairness import FairnessObjective

    inst = generate_random(seed=4, n_nodes=8, n_links=12, n_routes=10, alpha=1.0)
    part = build_partition(inst, balanced_assignment(inst, 2))
    for count in (5, 20):
        obj = FairnessObjective(alpha=1.0, weights=np.ones(count))
        with pytest.raises(SimulationError, match="weights"):
            build_controllers(inst, part, obj, penalty=1.0)


def test_one_message_per_peer_with_routes_ascending():
    inst, part, obj, idx, state, nodes = make_setup(seed=3, domains=6)
    shared = _shared_routes(part)
    for node in nodes:
        messages = node.compute_round(0)
        peers = sorted(q for (p, q) in shared if p == node.domain)
        assert [m.receiver for m in messages] == peers
        for m in messages:
            assert (m.round_index, m.sender) == (0, node.domain)
            assert m.routes.tolist() == shared[(node.domain, m.receiver)]
            assert m.values.shape == m.feasible_values.shape == m.routes.shape


def test_meter_counts_two_floats_per_shared_route_per_pair():
    inst, part, obj, idx, state, nodes = make_setup(seed=9, domains=5)
    meter = OverheadMeter()
    for k in range(4):
        run_round(nodes, k, meter=meter)
    shared = _shared_routes(part)
    assert meter.per_pair == {pair: 2 * 4 * len(routes) for pair, routes in shared.items()}


def test_link_values_write_through_to_flat_copies():
    inst, part, obj, idx, state, nodes = make_setup(seed=11)
    run_round(nodes, 0)
    before = gather_link_values(nodes, inst)
    node = next(n for n in nodes if n.copies.size)
    j = next(j for j in node.links if node.link_values[j].size)
    node.link_values[j][0] = np.nextafter(node.link_values[j][0], np.inf)
    after = gather_link_values(nodes, inst)
    changed = np.nonzero(after != before)[0]
    assert changed.tolist() == [inst.incidence.link_starts[j]]
    assert after[changed[0]] == np.nextafter(before[changed[0]], np.inf)


def test_message_log_bytes_are_pinned(tmp_path):
    """Three rounds of the per-route log, byte for byte as the per-route
    message-passing implementation wrote them."""
    import hashlib

    inst, part, obj, idx, state, nodes = make_setup(seed=11)
    log = []
    for k in range(3):
        run_round(nodes, k, log=log)
    path = tmp_path / "messages.csv"
    export_message_log(log, path)
    assert len(log) == 144
    assert (
        hashlib.sha256(path.read_bytes()).hexdigest()
        == "8ba44ffe72272ef301a4c0b21b9985952896e9393c292164859d9150ec1757b4"
    )

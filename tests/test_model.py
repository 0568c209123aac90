import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairalloc.model import (
    Instance,
    Link,
    ModelError,
    Route,
    balanced_assignment,
    build_partition,
    carried_rates,
    generate_random,
    generate_with_topology,
    instance_from_dict,
    instance_to_dict,
    is_feasible,
    link_loads,
    load_instance,
    load_partition,
    save_instance,
    save_partition,
    single_domain,
    validate,
)
from fairalloc.solvers import ConsensusIndex


def test_validate_accepts_wellformed(small_instance):
    assert validate(small_instance) == []


def test_validate_names_bad_capacity():
    inst = Instance(links=(Link(0, 1.0), Link(1, 0.0)), routes=(Route(0, (0,)),))
    problems = validate(inst)
    assert any("link 1" in p and "capacity" in p for p in problems)


def test_validate_names_bad_route():
    inst = Instance(
        links=(Link(0, 1.0),),
        routes=(Route(0, ()), Route(1, (0, 0)), Route(2, (5,)), Route(3, (0,), weight=-1.0)),
    )
    problems = "\n".join(validate(inst))
    assert "route 0" in problems and "at least one link" in problems
    assert "route 1" in problems and "repeated" in problems
    assert "route 2" in problems and "unknown link" in problems
    assert "route 3" in problems and "weight" in problems


def test_validate_rejects_negative_alpha():
    inst = Instance(links=(Link(0, 1.0),), routes=(Route(0, (0,)),), alpha=-0.5)
    assert any("alpha" in p for p in validate(inst))


def test_incidence_layout(tiny_instance):
    inc = tiny_instance.incidence
    assert inc.link_starts.tolist() == [0, 2, 3]
    assert inc.copy_route.tolist() == [0, 1, 1]


def test_link_copies_of_a_link_selection():
    # link 1 carries no route; link 0 carries both routes, links 2 and 3 one each
    inst = Instance(
        links=tuple(Link(j, 1.0) for j in range(4)),
        routes=(Route(0, (0, 2)), Route(1, (0, 3))),
    )
    inc = inst.incidence
    for links, copies, starts in (
        ([0, 1, 2], [0, 1, 2], [0, 2, 2, 3]),
        ([1, 3], [3], [0, 0, 1]),
        ([2], [2], [0, 1]),
        ([], [], [0]),
    ):
        got_copies, got_starts = inc.link_copies(np.array(links, dtype=np.intp))
        assert got_copies.tolist() == copies and got_starts.tolist() == starts, links
    copies, starts = inc.link_copies(np.arange(inst.n_links))
    assert copies.tolist() == list(range(inc.n_copies))
    assert starts.tolist() == inc.link_starts.tolist()


def test_carried_rates_is_identity_on_feasible_allocations(tiny_instance):
    x = np.array([1.0, 0.5])
    assert carried_rates(tiny_instance, x).tolist() == x.tolist()


def test_carried_rates_grants_the_worst_proportional_share(tiny_instance):
    # link 0 carries 4 over capacity 2 (grant 1/2), link 1 carries 2 over 1.5 (grant 3/4)
    carried = carried_rates(tiny_instance, np.array([2.0, 2.0]))
    assert carried.tolist() == [1.0, 1.0]
    assert is_feasible(tiny_instance, carried)


def test_carried_rates_keeps_the_rate_of_a_route_with_no_link():
    # not validated: route 1 crosses no link, so nothing polices it
    inst = Instance(links=(Link(0, 1.0),), routes=(Route(0, (0,)), Route(1, ())))
    assert carried_rates(inst, np.array([4.0, 5.0])).tolist() == [1.0, 5.0]


def test_link_loads_and_feasibility(tiny_instance):
    x = np.array([1.0, 0.5])
    assert link_loads(tiny_instance, x).tolist() == [1.5, 0.5]
    assert is_feasible(tiny_instance, x)
    assert not is_feasible(tiny_instance, np.array([1.0, 1.1]))  # link 0 over
    assert not is_feasible(tiny_instance, np.array([-0.1, 0.5]))


def test_loads_and_carried_rates_reject_a_wrong_shape(tiny_instance):
    # tiny_instance has 2 routes; a longer vector must not load its head
    for wrong in (np.ones(1), np.ones(3), np.ones((1, 2)), np.ones((2, 2))):
        with pytest.raises(ModelError, match="for 2 routes"):
            link_loads(tiny_instance, wrong)
        with pytest.raises(ModelError, match="for 2 routes"):
            carried_rates(tiny_instance, wrong)
        assert not is_feasible(tiny_instance, wrong)


def test_partition_structure(small_instance):
    part = build_partition(small_instance, balanced_assignment(small_instance, 3))
    # the link->domain map is the whole record; the index derives the rest
    assert [f.name for f in dataclasses.fields(part)] == ["domain_of_link", "n_domains"]
    assert part.n_domains == 3
    counts = np.bincount(part.domain_of_link)[1:]
    assert counts.size == 3 and counts.max() - counts.min() <= 1


def test_partition_rejects_missing_link(small_instance):
    mapping = balanced_assignment(small_instance, 2)
    mapping.pop(3)
    with pytest.raises(ModelError, match="link 3"):
        build_partition(small_instance, mapping)


def test_partition_rejects_empty_domain(small_instance):
    mapping = {j: 1 for j in range(small_instance.n_links)}
    mapping[0] = 3  # domain 2 missing
    with pytest.raises(ModelError, match="domain 2"):
        build_partition(small_instance, mapping)


def test_partition_of_an_instance_without_links_is_a_model_error():
    with pytest.raises(ModelError, match="no links"):
        build_partition(Instance((), (), 1.0), {})


def test_single_domain_covers_everything(small_instance):
    part = single_domain(small_instance)
    assert part.n_domains == 1
    assert part.domain_of_link == (1,) * small_instance.n_links
    idx = ConsensusIndex(small_instance, part)
    assert idx.group_route.tolist() == list(range(small_instance.n_routes))
    assert set(idx.group_domain.tolist()) == {1}
    assert idx.floats_per_round == 0


def test_generate_is_deterministic():
    a = generate_random(seed=9, n_nodes=10, n_links=15, n_routes=20)
    b = generate_random(seed=9, n_nodes=10, n_links=15, n_routes=20)
    assert a == b
    c = generate_random(seed=10, n_nodes=10, n_links=15, n_routes=20)
    assert a != c


def test_generate_topology_is_connected_and_sized():
    inst, edges = generate_with_topology(seed=2, n_nodes=9, n_links=14, n_routes=10)
    assert len(edges) == 14 and len(set(edges)) == 14
    # union-find connectivity over the edge list
    parent = list(range(9))

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for u, v in edges:
        parent[find(u)] = find(v)
    assert len({find(u) for u in range(9)}) == 1


def test_generate_routes_are_paths():
    inst, edges = generate_with_topology(seed=4, n_nodes=8, n_links=12, n_routes=25)
    for route in inst.routes:
        # consecutive links must chain through shared nodes, no link repeats
        assert len(set(route.links)) == len(route.links)
        ends = [edges[j] for j in route.links]
        if len(ends) > 1:
            for (a1, b1), (a2, b2) in zip(ends, ends[1:]):
                assert {a1, b1} & {a2, b2}


def test_generate_parameter_validation():
    with pytest.raises(ModelError):
        generate_random(seed=0, n_nodes=5, n_links=3, n_routes=1)  # below tree size
    with pytest.raises(ModelError):
        generate_random(seed=0, n_nodes=5, n_links=11, n_routes=1)  # above complete graph
    with pytest.raises(ModelError):
        generate_random(seed=0, n_nodes=5, n_links=5, n_routes=1, capacity_range=(2.0, 1.0))


def test_instance_json_roundtrip(tmp_path, small_instance):
    path = tmp_path / "inst.json"
    save_instance(small_instance, path)
    assert load_instance(path) == small_instance


def test_instance_rejects_unknown_field(tmp_path, small_instance):
    doc = instance_to_dict(small_instance)
    doc["extra"] = 1
    with pytest.raises(ModelError, match="unknown field 'extra'"):
        instance_from_dict(doc)
    doc.pop("extra")
    doc["links"][2]["color"] = "red"
    with pytest.raises(ModelError, match="unknown field 'color'"):
        instance_from_dict(doc)


def test_instance_rejects_missing_field(small_instance):
    doc = instance_to_dict(small_instance)
    doc.pop("alpha")
    with pytest.raises(ModelError, match="missing field 'alpha'"):
        instance_from_dict(doc)


def test_instance_rejects_bad_types(small_instance):
    doc = instance_to_dict(small_instance)
    doc["routes"][0]["id"] = True
    with pytest.raises(ModelError, match="expected an integer"):
        instance_from_dict(doc)


def test_partition_file_roundtrip(tmp_path, small_instance):
    mapping = balanced_assignment(small_instance, 4)
    path = tmp_path / "part.json"
    save_partition(mapping, path)
    assert load_partition(path) == mapping


def test_partition_file_rejects_duplicates(tmp_path):
    path = tmp_path / "part.json"
    path.write_text(json.dumps([{"link_id": 0, "domain": 1}, {"link_id": 0, "domain": 2}]))
    with pytest.raises(ModelError, match="assigned twice"):
        load_partition(path)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), domains=st.integers(1, 5))
def test_partition_covers_and_matches_route_links(seed, domains):
    inst = generate_random(seed=seed, n_nodes=7, n_links=10, n_routes=8)
    part = build_partition(inst, balanced_assignment(inst, min(domains, inst.n_links)))
    assert len(part.domain_of_link) == inst.n_links
    assert set(part.domain_of_link) == set(range(1, part.n_domains + 1))
    # the index's (route, domain) groups are the holders of each route
    idx = ConsensusIndex(inst, part)
    holders = []
    for route in inst.routes:
        expected = {part.domain_of_link[j] for j in route.links}
        assert set(idx.group_domain[idx.group_route == route.id].tolist()) == expected
        holders.append(len(expected))
    assert idx.floats_per_round == sum(2 * h * (h - 1) for h in holders)

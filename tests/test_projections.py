import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fairalloc import solvers
from fairalloc.model import Incidence, Instance, Link, Route, generate_random
from fairalloc.numerics import canonical_sum
from fairalloc.projections import (
    BatchedLinkProjector,
    DykstraError,
    ProjectionError,
    project_capped_simplex,
    project_polyhedron,
)

from oracles import project_oracle, sequential_dykstra, sort_threshold_projection

finite_vec = hnp.arrays(
    np.float64,
    st.integers(1, 6),
    elements=st.floats(-50.0, 50.0, allow_nan=False),
)


def test_examples():
    np.testing.assert_array_equal(project_capped_simplex(np.array([3.0, 1.0]), 2.0), [2.0, 0.0])
    np.testing.assert_array_equal(project_capped_simplex(np.array([0.5, 0.5]), 2.0), [0.5, 0.5])
    np.testing.assert_array_equal(project_capped_simplex(np.array([-1.0, -2.0]), 1.0), [0.0, 0.0])
    np.testing.assert_allclose(project_capped_simplex(np.array([2.0, 2.0]), 2.0), [1.0, 1.0])


def test_validates():
    with pytest.raises(ProjectionError):
        project_capped_simplex(np.array([]), 1.0)
    with pytest.raises(ProjectionError):
        project_capped_simplex(np.array([1.0]), 0.0)
    with pytest.raises(ProjectionError):
        project_capped_simplex(np.array([np.nan]), 1.0)


def test_matches_kkt_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        y = rng.uniform(-10, 10, size=n)
        cap = float(rng.uniform(0.1, 12.0))
        got = project_capped_simplex(y, cap)
        want = project_oracle(y, cap)
        np.testing.assert_allclose(got, want, atol=1e-6)


@settings(max_examples=200, deadline=None)
@given(y=finite_vec, cap=st.floats(1e-3, 100.0))
def test_output_exactly_feasible(y, cap):
    x = project_capped_simplex(y, cap)
    assert np.all(x >= 0.0)
    assert canonical_sum(x) <= cap  # exact float comparison, no tolerance


@settings(max_examples=150, deadline=None)
@given(y=finite_vec, cap=st.floats(1e-3, 100.0))
def test_idempotent_and_nonexpansive(y, cap):
    x = project_capped_simplex(y, cap)
    again = project_capped_simplex(x, cap)
    np.testing.assert_allclose(again, x, atol=1e-12)
    z = project_capped_simplex(y + 0.5, cap)
    assert np.linalg.norm(z - x) <= np.linalg.norm(np.full_like(y, 0.5)) + 1e-9


def test_rounding_repair_kicks_in():
    # values whose naive threshold subtraction leaves sum one ulp over cap
    y = np.array([0.1, 0.2, 0.3, 0.4, 1.0000000000000002])
    for cap in [0.7, 1.0, 1.3000000000000003]:
        x = project_capped_simplex(y, cap)
        assert canonical_sum(x) <= cap


def test_batched_matches_single_bitwise():
    rng = np.random.default_rng(7)
    cases = []
    for trial in range(30):
        inst = generate_random(
            seed=trial, n_nodes=8, n_links=13, n_routes=14, alpha=1.0
        )
        inc = inst.incidence
        cases.append((inc.link_starts, inst.capacities, rng.uniform(-3, 6, size=inc.n_copies)))
    # the ulp-excess copies of test_rounding_repair_kicks_in on links of
    # mixed sizes; at caps 0.05, 0.15 and 0.3 the threshold step leaves an
    # excess, so the repair changes entries
    ulp = np.array([0.1, 0.2, 0.3, 0.4, 1.0000000000000002])
    ulp_caps = [0.7, 1.0, 1.3000000000000003, 0.05, 0.15, 0.3]
    cases.append((
        np.array([0, 5, 7, 12, 13, 18, 23, 28, 33]),
        np.array(ulp_caps[:2] + [2.0, 1.5] + ulp_caps[2:]),
        np.concatenate([ulp, [3.0, 1.0], ulp, [4.0], ulp, ulp, ulp, ulp]),
    ))
    # an instance whose link 1 no route traverses
    inst = Instance(
        links=(Link(0, 2.0), Link(1, 1.0), Link(2, 1.5)),
        routes=(Route(0, (0, 2)), Route(1, (0,)), Route(2, (2,))),
    )
    inc = inst.incidence
    cases.append((inc.link_starts, inst.capacities, np.array([3.0, 1.0, 0.5, 2.0])))
    # a huge entry swamps the cap, so no descending prefix tests positive
    # and the threshold comes from the link's last entry, not from a pad
    cases.append((np.array([0, 2, 5]), np.array([1.0, 1.0]), np.array([1e17, 5.0, 1.0, 2.0, 3.0])))
    # every link under its cap: apply only clips, no link is projected
    cases.append((np.array([0, 2, 5]), np.array([10.0, 10.0]), np.array([1.0, -2.0, 0.5, 3.0, 0.0])))
    for link_starts, capacities, flat in cases:
        proj = BatchedLinkProjector(link_starts, capacities)
        out = np.empty_like(flat)
        proj.apply(flat, out=out)
        for j in range(capacities.size):
            s, e = link_starts[j], link_starts[j + 1]
            if s == e:
                continue
            single = sort_threshold_projection(flat[s:e], capacities[j])
            assert np.array_equal(out[s:e], single), f"link {j} diverged"
    # a non-finite copy: the batched projector and its one-link public call
    # raise instead of passing it through
    for bad in (np.nan, np.inf):
        flat = np.array([bad, 5.0])
        with np.errstate(invalid="ignore"), pytest.raises(ProjectionError):
            BatchedLinkProjector(np.array([0, 2]), np.array([1.0])).apply(flat, out=np.empty(2))
        with np.errstate(invalid="ignore"), pytest.raises(ProjectionError):
            project_capped_simplex(flat, 1.0)


def test_dykstra_single_link_equals_direct_projection():
    inst = generate_random(seed=3, n_nodes=4, n_links=3, n_routes=5, alpha=1.0)
    # restrict to instances where each route is one link? No: single-link sets
    # still interact through shared routes, so use a genuinely tiny instance.
    y = np.array([4.0, -1.0, 2.0, 0.3, 1.7])
    x = project_polyhedron(inst, y, tolerance=1e-9)
    # necessary conditions of the Euclidean projection
    from fairalloc.model import is_feasible, link_loads

    assert np.all(x >= -1e-12)
    assert np.all(link_loads(inst, x) <= inst.capacities + 1e-9)
    # any strictly feasible move toward y must not be possible: compare
    # objective against a dense local search
    rng = np.random.default_rng(0)
    d0 = float(np.sum((x - y) ** 2))
    for _ in range(300):
        cand = x + rng.normal(scale=1e-3, size=x.size)
        cand = np.maximum(cand, 0.0)
        if np.all(link_loads(inst, cand) <= inst.capacities):
            assert np.sum((cand - y) ** 2) >= d0 - 1e-7


def test_dykstra_exactness_on_one_link():
    # one link, two routes: polyhedron == capped simplex, answer in closed form
    inst = Instance(links=(Link(0, 2.0),), routes=(Route(0, (0,)), Route(1, (0,))))
    y = np.array([3.0, 1.0])
    x = project_polyhedron(inst, y, tolerance=1e-10)
    np.testing.assert_allclose(x, [2.0, 0.0], atol=1e-9)


def test_dykstra_error_carries_last_point():
    inst = Instance(links=(Link(0, 1.0), Link(1, 1.0)), routes=(Route(0, (0, 1)), Route(1, (0,)), Route(2, (1,))))
    with pytest.raises(DykstraError) as exc:
        project_polyhedron(inst, np.array([5.0, 5.0, 5.0]), tolerance=1e-12, max_cycles=2)
    assert exc.value.last_point.shape == (3,)
    assert np.isfinite(exc.value.residual)


def test_dykstra_rejects_non_finite_point():
    inst = Instance(links=(Link(0, 1.0), Link(1, 1.0)), routes=(Route(0, (0, 1)), Route(1, (0,)), Route(2, (1,))))
    for bad in (np.nan, np.inf):
        with pytest.raises(ProjectionError, match="finite"):
            project_polyhedron(inst, np.array([1.0, bad, 0.5]))


def test_dykstra_rejects_route_without_links():
    # nothing would move such a route's coordinate: -1 would come back as is
    inst = Instance(links=(Link(0, 1.0),), routes=(Route(0, (0,)), Route(1, ())))
    with pytest.raises(ProjectionError, match="at least one link"):
        project_polyhedron(inst, np.array([0.5, -1.0]))


def _colour_cases():
    # 30 links for 6 routes leave links untraversed and links with one route
    cases = [generate_random(seed=s, n_nodes=12, n_links=30, n_routes=6, alpha=1.0) for s in range(10)]
    cases += [generate_random(seed=s, n_nodes=10, n_links=16, n_routes=20, alpha=1.0) for s in range(10)]
    cases.append(
        Instance(
            links=(Link(0, 2.0), Link(1, 1.0), Link(2, 1.5), Link(3, 1.0)),
            routes=(Route(0, (0, 2)), Route(1, (0,)), Route(2, (3,))),
        )
    )
    return cases


def test_link_colour_classes_partition_route_disjoint():
    for inst in _colour_cases():
        classes = inst.incidence.colour_classes
        carrying = {j for r in inst.routes for j in r.links}
        coloured = [int(j) for links in classes for j in links]
        assert sorted(coloured) == sorted(carrying)  # each carrying link exactly once
        for links in classes:
            assert links.size > 0 and np.all(np.diff(links) > 0)
            routes = [r.id for r in inst.routes for j in links if j in r.links]
            assert len(routes) == len(set(routes)), "two links of one class share a route"


def test_instance_is_coloured_once(monkeypatch):
    colourings = []
    colour = Incidence.colour_classes.func
    monkeypatch.setattr(Incidence.colour_classes, "func", lambda inc: colourings.append(inc) or colour(inc))
    inst = generate_random(seed=3, n_nodes=10, n_links=16, n_routes=20, alpha=1.0)
    rng = np.random.default_rng(3)
    for _ in range(2):
        project_polyhedron(inst, rng.uniform(-2.0, 8.0, size=inst.n_routes))
    solvers.solve(inst, None, "c-admm", config=solvers.SolverConfig(max_iters=3))
    assert len(colourings) == 1 and colourings[0] is inst.incidence


def test_dykstra_matches_sequential_oracle_bitwise():
    rng = np.random.default_rng(11)
    for s, inst in enumerate(_colour_cases()):
        order = [int(j) for links in inst.incidence.colour_classes for j in links]
        y = rng.uniform(-2.0, 8.0, size=inst.n_routes)
        tol = (1e-9, 1e-10)[s % 2]
        got = project_polyhedron(inst, y, tolerance=tol)
        want, _ = sequential_dykstra(inst, y, order, sort_threshold_projection, tolerance=tol, cycles=100_000)
        assert np.array_equal(got, want), f"case {s} diverged"


def test_dykstra_accurate_on_cadmm_points(monkeypatch):
    # c-admm's first projections on this instance: the iterate stands still
    # for a cycle long before the corrections do
    inst = generate_random(seed=206, n_nodes=8, n_links=14, n_routes=7, alpha=0.5)
    points = []
    project = solvers.project_polyhedron

    def record(instance, point, **kwargs):
        points.append(np.array(point))
        return project(instance, point, **kwargs)

    monkeypatch.setattr(solvers, "project_polyhedron", record)
    config = solvers.SolverConfig(tol_primal=0.0, tol_dual=0.0, max_iters=4)
    solvers.solve(inst, None, "c-admm", config=config)
    monkeypatch.undo()
    links = sorted({j for r in inst.routes for j in r.links})
    for i, y in enumerate(points):
        reference, _ = sequential_dykstra(inst, y, links, sort_threshold_projection, cycles=3000)
        got = project_polyhedron(inst, y, tolerance=solvers.DYKSTRA_TOL)
        assert np.max(np.abs(got - reference)) <= 1e-9, f"point {i}"

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fairalloc import projections, solvers
from fairalloc.model import Incidence, Instance, Link, Route, generate_random, link_loads
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
    # the -1e308 copies fit their cap once clipped; sorting their link with
    # the one over its cap would overflow its prefix sums
    cases.append((np.array([0, 3, 5]), np.array([2.0, 1.0]), np.array([3.0, 1.0, 2.0, -1e308, -1e308])))
    # every link under its cap: apply only clips, no link is projected
    cases.append((np.array([0, 2, 5]), np.array([10.0, 10.0]), np.array([1.0, -2.0, 0.5, 3.0, 0.0])))
    # random layouts of links with 0 to 40 copies, so most rows are padded:
    # ties, signed zeros and -inf copies (which clip to 0), caps 1e-4 to 1e3
    for trial in range(60):
        sizes = rng.integers(0, 41, size=int(rng.integers(1, 25)))
        flat = rng.uniform(-3.0, 6.0, size=int(sizes.sum()))
        if trial % 2:
            flat = np.round(flat, 1)
        flat[rng.random(flat.size) < 0.1] = -0.0
        flat[rng.random(flat.size) < 0.03] = -np.inf
        caps = 10.0 ** rng.uniform(-4.0, 3.0, size=sizes.size)
        cases.append((np.concatenate(([0], np.cumsum(sizes))), caps, flat))
    for link_starts, capacities, flat in cases:
        proj = BatchedLinkProjector(link_starts, capacities)
        out = np.empty_like(flat)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            proj.apply(flat, out=out)
        for j in range(capacities.size):
            s, e = link_starts[j], link_starts[j + 1]
            if s == e:
                continue
            # the oracle's test reads -inf - -inf at a -inf copy
            with np.errstate(invalid="ignore"):
                single = sort_threshold_projection(flat[s:e], capacities[j])
            # bytes, so that a flipped sign of a zero shows
            assert out[s:e].tobytes() == single.tobytes(), f"link {j} diverged from the oracle"
            alone = project_capped_simplex(flat[s:e], capacities[j])
            assert out[s:e].tobytes() == alone.tobytes(), f"link {j} depends on its batch"
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
    y = np.array([4.0, -1.0, 2.0, 0.3, 1.7])
    x = project_polyhedron(inst, y)
    # necessary conditions of the Euclidean projection
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
    x = project_polyhedron(inst, y)
    np.testing.assert_allclose(x, [2.0, 0.0], atol=1e-9)


def test_polyhedron_newton_system_edge_cases():
    # two tight links that carry the same route: the link matrix is singular
    # without its ridge
    inst = Instance(links=(Link(0, 1.0), Link(1, 1.0)), routes=(Route(0, (0, 1)),))
    np.testing.assert_allclose(project_polyhedron(inst, np.array([3.0])), [1.0], rtol=1e-12)
    three = tuple(Link(j, 1.0) for j in range(3))
    inst = Instance(links=three, routes=(Route(0, (0, 1, 2)), Route(1, (0, 1, 2))))
    np.testing.assert_allclose(project_polyhedron(inst, np.array([3.0, 3.0])), [0.5, 0.5], rtol=1e-12)
    # a rate whose bound holds at the projection comes back as an exact 0
    inst = Instance(links=(Link(0, 2.0),), routes=(Route(0, (0,)), Route(1, (0,))))
    x = project_polyhedron(inst, np.array([3.0, 0.5]))
    np.testing.assert_allclose(x[0], 2.0, rtol=1e-12)
    assert x[1] == 0.0
    # no routes: nothing to project
    for links in ((Link(0, 2.0),), ()):
        assert project_polyhedron(Instance(links=links, routes=()), np.empty(0)).shape == (0,)


def test_polyhedron_projects_where_dykstra_stalls():
    # Dykstra's method with a 1e-9 stop rule ran out of 100 000 cycles here
    inst = generate_random(0, 25, 57, 31, capacity_range=(0.0016, 0.0018), alpha=1.0)
    y = np.random.default_rng(0).uniform(-76.0, 76.0, 31)
    x = project_polyhedron(inst, y)
    assert np.all(x >= 0.0)
    assert np.all(link_loads(inst, x) <= inst.capacities * (1.0 + 1e-12))
    assert np.max(np.abs(project_polyhedron(inst, x) - x)) <= 1e-11


def test_dykstra_error_carries_last_point(monkeypatch):
    monkeypatch.setattr(projections, "POLYHEDRON_STEPS", 2)
    inst = Instance(links=(Link(0, 1.0), Link(1, 1.0)), routes=(Route(0, (0, 1)), Route(1, (0,)), Route(2, (1,))))
    with pytest.raises(DykstraError) as exc:
        project_polyhedron(inst, np.array([5.0, 5.0, 5.0]))
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


def _polyhedron_cases():
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


def test_pair_table_built_once_per_incidence(monkeypatch):
    tables = []
    build = Incidence.link_pairs.func
    monkeypatch.setattr(Incidence.link_pairs, "func", lambda inc: tables.append(inc) or build(inc))
    inst = generate_random(seed=3, n_nodes=10, n_links=16, n_routes=20, alpha=1.0)
    rng = np.random.default_rng(3)
    for _ in range(2):
        project_polyhedron(inst, rng.uniform(-2.0, 8.0, size=inst.n_routes))
    solvers.solve(inst, None, "c-admm", config=solvers.SolverConfig(max_iters=3))
    assert len(tables) == 1 and tables[0] is inst.incidence
    # the table sums A diag(w) A^T for the dense link-route incidence A
    for inst in _polyhedron_cases():
        a = np.zeros((inst.n_links, inst.n_routes))
        a[inst.incidence.copy_link, inst.incidence.copy_route] = 1.0
        w = rng.uniform(0.5, 2.0, size=inst.n_routes)
        index, route = inst.incidence.link_pairs
        got = np.bincount(index, weights=w[route], minlength=inst.n_links**2).reshape(inst.n_links, inst.n_links)
        np.testing.assert_allclose(got, (a * w) @ a.T, rtol=1e-12)


def test_polyhedron_matches_sequential_oracle():
    rng = np.random.default_rng(11)
    for s, inst in enumerate(_polyhedron_cases()):
        links = sorted({j for r in inst.routes for j in r.links})
        y = rng.uniform(-2.0, 8.0, size=inst.n_routes)
        got = project_polyhedron(inst, y)
        want, _ = sequential_dykstra(inst, y, links, sort_threshold_projection, tolerance=1e-12, cycles=100_000)
        assert np.max(np.abs(got - want)) <= 1e-9, f"case {s} diverged"


def test_dykstra_accurate_on_cadmm_points(monkeypatch):
    # c-admm's first projections on this instance: Dykstra's iterate stands
    # still for a cycle long before its corrections do
    inst = generate_random(seed=206, n_nodes=8, n_links=14, n_routes=7, alpha=0.5)
    points = []
    project = solvers.project_polyhedron

    def record(instance, point):
        points.append(np.array(point))
        return project(instance, point)

    monkeypatch.setattr(solvers, "project_polyhedron", record)
    config = solvers.SolverConfig(tol_primal=0.0, tol_dual=0.0, max_iters=4)
    solvers.solve(inst, None, "c-admm", config=config)
    monkeypatch.undo()
    links = sorted({j for r in inst.routes for j in r.links})
    for i, y in enumerate(points):
        reference, _ = sequential_dykstra(inst, y, links, sort_threshold_projection, cycles=3000)
        got = project_polyhedron(inst, y)
        assert np.max(np.abs(got - reference)) <= 1e-9, f"point {i}"

"""Network model: capacitated links, weighted routes, instances, partitions.

An allocation is a plain ``float64`` array indexed by route id.  Route and
link ids are dense integers (``links[i].id == i``), so arrays and id-indexed
lookups are interchangeable everywhere downstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .numerics import segment_sums


class ModelError(ValueError):
    """Raised for malformed instances, partitions, or files."""


@dataclass(frozen=True)
class Link:
    id: int
    capacity: float


@dataclass(frozen=True)
class Route:
    id: int
    links: tuple[int, ...]
    weight: float = 1.0


@dataclass(frozen=True)
class Incidence:
    """Flat route-on-link incidence in (link, route) order.

    Copy ``k`` pairs route ``copy_route[k]`` with link ``copy_link[k]``; the
    copies of link ``j`` occupy ``link_starts[j]:link_starts[j+1]`` with
    member routes ascending.  This single layout backs load computation,
    feasibility checks, and the solver's consensus bookkeeping, so every
    consumer reduces link sums over identical operand orders.
    """

    copy_route: np.ndarray
    copy_link: np.ndarray
    link_starts: np.ndarray

    @property
    def n_copies(self) -> int:
        return int(self.copy_route.size)

    def members(self, link: int) -> np.ndarray:
        lo, hi = self.link_starts[link], self.link_starts[link + 1]
        return self.copy_route[lo:hi]

    def link_copies(self, links: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The incidence positions of the copies of ``links`` (ascending),
        link by link, and where each link's copies start among them, with
        the copy count last: ``link_starts`` of that selection."""
        links = np.asarray(links, dtype=np.intp)
        chosen = np.zeros(self.link_starts.size - 1, dtype=bool)
        chosen[links] = True
        starts = np.zeros(links.size + 1, dtype=np.intp)
        np.cumsum(self.link_starts[links + 1] - self.link_starts[links], out=starts[1:])
        return np.flatnonzero(chosen[self.copy_link]), starts

    @cached_property
    def colour_classes(self) -> list[np.ndarray]:
        """Greedy colouring of the link-conflict graph, one ascending link array per colour.

        Two links conflict when a route traverses both.  Links are coloured
        in id order, each with the lowest colour that no conflicting link
        holds yet, so no two links of one class share a route.  Links that
        carry no route are left out.  Computed once per incidence.
        """
        # per route, bit c set: a link of colour c carries the route
        taken = [0] * (int(self.copy_route.max(initial=-1)) + 1)
        classes: list[list[int]] = []
        for j in range(self.link_starts.size - 1):
            members = self.members(j).tolist()
            if not members:
                continue
            used = 0
            for r in members:
                used |= taken[r]
            colour = (~used & (used + 1)).bit_length() - 1  # lowest clear bit
            if colour == len(classes):
                classes.append([])
            classes[colour].append(j)
            for r in members:
                taken[r] |= 1 << colour
        return [np.array(links, dtype=np.intp) for links in classes]


@dataclass(frozen=True)
class Instance:
    links: tuple[Link, ...]
    routes: tuple[Route, ...]
    alpha: float = 1.0

    @property
    def n_links(self) -> int:
        return len(self.links)

    @property
    def n_routes(self) -> int:
        return len(self.routes)

    @cached_property
    def capacities(self) -> np.ndarray:
        arr = np.array([l.capacity for l in self.links], dtype=np.float64)
        arr.setflags(write=False)
        return arr

    @cached_property
    def weights(self) -> np.ndarray:
        arr = np.array([r.weight for r in self.routes], dtype=np.float64)
        arr.setflags(write=False)
        return arr

    @cached_property
    def incidence(self) -> Incidence:
        members: list[list[int]] = [[] for _ in range(self.n_links)]
        for route in self.routes:
            for j in route.links:
                members[j].append(route.id)
        copy_route: list[int] = []
        copy_link: list[int] = []
        starts = np.zeros(self.n_links + 1, dtype=np.intp)
        for j, routes in enumerate(members):
            routes.sort()
            copy_route.extend(routes)
            copy_link.extend([j] * len(routes))
            starts[j + 1] = starts[j] + len(routes)
        return Incidence(
            copy_route=np.array(copy_route, dtype=np.intp),
            copy_link=np.array(copy_link, dtype=np.intp),
            link_starts=starts,
        )


@dataclass(frozen=True)
class Partition:
    """Link-disjoint partition into domains 1..P: link ``j`` belongs to
    domain ``domain_of_link[j]``.  Which domains hold a route follows from
    its links; the solver's ``ConsensusIndex`` tabulates it."""

    domain_of_link: tuple[int, ...]
    n_domains: int


def validate(instance: Instance) -> list[str]:
    """Return all structural violations, naming the offending entity."""
    problems: list[str] = []
    if not isinstance(instance.alpha, (int, float)) or not np.isfinite(instance.alpha):
        problems.append("alpha: must be a finite number")
    elif instance.alpha < 0:
        problems.append(f"alpha: must be >= 0, got {instance.alpha}")
    for i, link in enumerate(instance.links):
        if link.id != i:
            problems.append(f"link at position {i}: ids must be dense, got id {link.id}")
        if not (isinstance(link.capacity, (int, float)) and np.isfinite(link.capacity) and link.capacity > 0):
            problems.append(f"link {link.id}: capacity must be > 0, got {link.capacity!r}")
    n_links = len(instance.links)
    for i, route in enumerate(instance.routes):
        if route.id != i:
            problems.append(f"route at position {i}: ids must be dense, got id {route.id}")
        if len(route.links) == 0:
            problems.append(f"route {route.id}: must traverse at least one link")
        if len(set(route.links)) != len(route.links):
            problems.append(f"route {route.id}: repeated link in path")
        for j in route.links:
            if not (isinstance(j, int) and 0 <= j < n_links):
                problems.append(f"route {route.id}: unknown link {j!r}")
        if not (isinstance(route.weight, (int, float)) and np.isfinite(route.weight) and route.weight > 0):
            problems.append(f"route {route.id}: weight must be > 0, got {route.weight!r}")
    return problems


def check(instance: Instance) -> Instance:
    problems = validate(instance)
    if problems:
        raise ModelError("; ".join(problems))
    return instance


def link_loads(instance: Instance, allocation: np.ndarray) -> np.ndarray:
    """Per-link carried load ``sum_{r: j in r} x_r``, empty links load 0.

    Uses the canonical segmented reduction so a load compared against the same
    capacity elsewhere in the package rounds identically.  Raises
    :class:`ModelError` unless ``allocation`` has shape ``(n_routes,)``.
    """
    inc = instance.incidence
    x = np.asarray(allocation, dtype=np.float64)
    if x.shape != (instance.n_routes,):
        raise ModelError(f"allocation of shape {x.shape} for {instance.n_routes} routes")
    loads = np.zeros(instance.n_links, dtype=np.float64)
    if inc.n_copies == 0:
        return loads
    # reduce over the non-empty links only: an empty link's start collides
    # with its neighbor's (and a trailing one falls off the end of the array),
    # while dropping it leaves every remaining segment's boundaries intact
    sizes = np.diff(inc.link_starts)
    nonempty = sizes > 0
    loads[nonempty] = segment_sums(x[inc.copy_route], inc.link_starts[:-1][nonempty])
    return loads


def route_minima(instance: Instance, per_copy: np.ndarray) -> np.ndarray:
    """Each route's minimum of ``per_copy`` (one value per incidence copy)
    over its links; ``inf`` for a route with no link.  A minimum is exact,
    so the result does not depend on the order the copies are visited in."""
    minima = np.full(instance.n_routes, np.inf)
    np.minimum.at(minima, instance.incidence.copy_route, per_copy)
    return minima


def carried_rates(instance: Instance, offered: np.ndarray) -> np.ndarray:
    """Rates the network delivers when ``offered`` is installed as-is.

    Every overloaded link grants its routes the proportional share
    ``capacity / load`` and a route is carried at its worst link's grant, the
    fluid model of per-link policing.  The map is the identity on feasible
    allocations.  In exact arithmetic the result fits every cap; in float64
    the rounded grants and load sums can leave a load a few ulps above its
    cap, so the result need not pass :func:`is_feasible`.  Raises
    :class:`ModelError` unless ``offered`` has shape ``(n_routes,)``.
    """
    x = np.asarray(offered, dtype=np.float64)
    loads = link_loads(instance, x)
    caps = instance.capacities
    with np.errstate(divide="ignore", invalid="ignore"):
        grant = np.where(loads > caps, caps / loads, 1.0)
    # a grant is at most 1, so a route with no link keeps its rate
    return x * np.minimum(route_minima(instance, grant[instance.incidence.copy_link]), 1.0)


def is_feasible(instance: Instance, allocation: np.ndarray) -> bool:
    """Exact float feasibility: nonnegative and every link load <= capacity."""
    x = np.asarray(allocation, dtype=np.float64)
    if x.shape != (instance.n_routes,) or np.any(x < 0.0):
        return False
    return bool(np.all(link_loads(instance, x) <= instance.capacities))


def build_partition(instance: Instance, domain_of_link: Mapping[int, int]) -> Partition:
    """Validate a link->domain map that assigns every link of ``instance``.

    Domains must be exactly 1..P with every domain owning at least one link.
    """
    n_links = instance.n_links
    assignment = []
    for j in range(n_links):
        if j not in domain_of_link:
            raise ModelError(f"link {j}: not assigned to any domain")
        p = domain_of_link[j]
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ModelError(f"link {j}: domain must be a positive integer, got {p!r}")
        assignment.append(p)
    extra = set(domain_of_link) - set(range(n_links))
    if extra:
        raise ModelError(f"partition assigns unknown link {sorted(extra)[0]}")
    if not assignment:
        raise ModelError("instance has no links to partition")
    n_domains = max(assignment)
    present = set(assignment)
    missing = [p for p in range(1, n_domains + 1) if p not in present]
    if missing:
        raise ModelError(f"domain {missing[0]}: owns no links (domains must be contiguous 1..P)")
    return Partition(domain_of_link=tuple(assignment), n_domains=n_domains)


def single_domain(instance: Instance) -> Partition:
    return build_partition(instance, {j: 1 for j in range(instance.n_links)})


def balanced_assignment(instance: Instance, n_domains: int) -> dict[int, int]:
    """k-way heuristic: round-robin links in descending route-degree order.

    Balances both link counts and (roughly) route membership per domain.
    """
    if n_domains < 1 or n_domains > instance.n_links:
        raise ModelError(f"cannot split {instance.n_links} links into {n_domains} domains")
    degree = [0] * instance.n_links
    for route in instance.routes:
        for j in route.links:
            degree[j] += 1
    order = sorted(range(instance.n_links), key=lambda j: (-degree[j], j))
    return {j: 1 + i % n_domains for i, j in enumerate(order)}


# ---------------------------------------------------------------------------
# random generation

def generate_with_topology(
    seed: int,
    n_nodes: int,
    n_links: int,
    n_routes: int,
    capacity_range: tuple[float, float] = (1.0, 10.0),
    weight_range: tuple[float, float] = (1.0, 1.0),
    alpha: float = 1.0,
) -> tuple[Instance, tuple[tuple[int, int], ...]]:
    """Connected random graph + shortest-path routes, returning the edge list.

    The graph is a uniform random spanning tree plus extra distinct edges;
    each route is the BFS shortest path (deterministic neighbor order) between
    a random source/destination pair.  Everything is driven by one
    ``default_rng(seed)`` stream, so equal arguments give equal instances.
    """
    if n_nodes < 1:
        raise ModelError("n_nodes must be >= 1")
    max_edges = n_nodes * (n_nodes - 1) // 2
    if n_links < n_nodes - 1 or n_links > max_edges:
        raise ModelError(
            f"n_links must lie in [{n_nodes - 1}, {max_edges}] for {n_nodes} nodes, got {n_links}"
        )
    if n_routes < 0:
        raise ModelError("n_routes must be >= 0")
    if n_routes > 0 and n_nodes < 2:
        raise ModelError("routes need at least 2 nodes")
    for name, (lo, hi) in (("capacity_range", capacity_range), ("weight_range", weight_range)):
        if not (0 < lo <= hi):
            raise ModelError(f"{name} must satisfy 0 < lo <= hi, got ({lo}, {hi})")

    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    edge_set: set[tuple[int, int]] = set()
    for v in range(1, n_nodes):
        u = int(rng.integers(0, v))
        e = (min(u, v), max(u, v))
        edges.append(e)
        edge_set.add(e)
    pool = [
        (u, v)
        for u in range(n_nodes)
        for v in range(u + 1, n_nodes)
        if (u, v) not in edge_set
    ]
    extra = n_links - (n_nodes - 1)
    if extra > 0:
        picks = rng.choice(len(pool), size=extra, replace=False)
        for i in picks:
            edges.append(pool[int(i)])

    capacities = rng.uniform(capacity_range[0], capacity_range[1], size=n_links)
    links = tuple(Link(id=j, capacity=float(capacities[j])) for j in range(n_links))

    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n_nodes)]
    for j, (u, v) in enumerate(edges):
        adjacency[u].append((v, j))
        adjacency[v].append((u, j))
    for nbrs in adjacency:
        nbrs.sort()

    def shortest_path_links(src: int, dst: int) -> tuple[int, ...]:
        prev: dict[int, tuple[int, int]] = {src: (-1, -1)}
        frontier = [src]
        while frontier and dst not in prev:
            nxt: list[int] = []
            for u in frontier:
                for v, j in adjacency[u]:
                    if v not in prev:
                        prev[v] = (u, j)
                        nxt.append(v)
            frontier = nxt
        if dst not in prev:
            raise ModelError(f"no path between nodes {src} and {dst}")
        path: list[int] = []
        node = dst
        while node != src:
            node, j = prev[node]
            path.append(j)
        path.reverse()
        return tuple(path)

    routes = []
    for r in range(n_routes):
        src, dst = 0, 0
        while src == dst:
            src = int(rng.integers(0, n_nodes))
            dst = int(rng.integers(0, n_nodes))
        weight = float(rng.uniform(weight_range[0], weight_range[1]))
        routes.append(Route(id=r, links=shortest_path_links(src, dst), weight=weight))

    instance = Instance(links=links, routes=tuple(routes), alpha=float(alpha))
    return check(instance), tuple(edges)


def generate_random(
    seed: int,
    n_nodes: int,
    n_links: int,
    n_routes: int,
    capacity_range: tuple[float, float] = (1.0, 10.0),
    weight_range: tuple[float, float] = (1.0, 1.0),
    alpha: float = 1.0,
) -> Instance:
    instance, _ = generate_with_topology(
        seed, n_nodes, n_links, n_routes, capacity_range, weight_range, alpha
    )
    return instance


# ---------------------------------------------------------------------------
# serialization (strict: unknown fields are rejected, missing fields named)

def _require(obj: dict, field: str, where: str):
    if field not in obj:
        raise ModelError(f"missing field '{field}' in {where}")
    return obj[field]

def _no_extras(obj: dict, allowed: set[str], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ModelError(f"unknown field '{key}' in {where}")

def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(f"{where}: expected a number, got {value!r}")
    return float(value)

def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelError(f"{where}: expected an integer, got {value!r}")
    return value


def instance_to_dict(instance: Instance) -> dict:
    return {
        "alpha": instance.alpha,
        "links": [{"id": l.id, "capacity": l.capacity} for l in instance.links],
        "routes": [
            {"id": r.id, "weight": r.weight, "links": list(r.links)}
            for r in instance.routes
        ],
    }


def instance_from_dict(data: dict) -> Instance:
    if not isinstance(data, dict):
        raise ModelError("instance document must be a JSON object")
    _no_extras(data, {"alpha", "links", "routes"}, "instance")
    alpha = _number(_require(data, "alpha", "instance"), "alpha")
    raw_links = _require(data, "links", "instance")
    raw_routes = _require(data, "routes", "instance")
    if not isinstance(raw_links, list) or not isinstance(raw_routes, list):
        raise ModelError("'links' and 'routes' must be arrays")
    links = []
    for i, obj in enumerate(raw_links):
        if not isinstance(obj, dict):
            raise ModelError(f"link at position {i} must be an object")
        _no_extras(obj, {"id", "capacity"}, f"link at position {i}")
        links.append(
            Link(
                id=_integer(_require(obj, "id", f"link at position {i}"), f"link {i} id"),
                capacity=_number(_require(obj, "capacity", f"link at position {i}"), f"link {i} capacity"),
            )
        )
    routes = []
    for i, obj in enumerate(raw_routes):
        if not isinstance(obj, dict):
            raise ModelError(f"route at position {i} must be an object")
        _no_extras(obj, {"id", "weight", "links"}, f"route at position {i}")
        path = _require(obj, "links", f"route at position {i}")
        if not isinstance(path, list):
            raise ModelError(f"route at position {i}: 'links' must be an array")
        routes.append(
            Route(
                id=_integer(_require(obj, "id", f"route at position {i}"), f"route {i} id"),
                weight=_number(_require(obj, "weight", f"route at position {i}"), f"route {i} weight"),
                links=tuple(_integer(j, f"route {i} link entry") for j in path),
            )
        )
    return check(Instance(links=tuple(links), routes=tuple(routes), alpha=alpha))


def save_instance(instance: Instance, path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2)
        fh.write("\n")


def load_instance(path) -> Instance:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"{path}: not valid JSON ({exc})") from exc
    return instance_from_dict(data)


def save_partition(domain_of_link: Mapping[int, int], path) -> None:
    rows = [{"link_id": j, "domain": domain_of_link[j]} for j in sorted(domain_of_link)]
    with open(path, "w", newline="\n") as fh:
        json.dump(rows, fh, indent=2)
        fh.write("\n")


def load_partition(path) -> dict[int, int]:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, list):
        raise ModelError("partition document must be a JSON array")
    mapping: dict[int, int] = {}
    for i, obj in enumerate(data):
        if not isinstance(obj, dict):
            raise ModelError(f"partition entry {i} must be an object")
        _no_extras(obj, {"link_id", "domain"}, f"partition entry {i}")
        j = _integer(_require(obj, "link_id", f"partition entry {i}"), f"entry {i} link_id")
        p = _integer(_require(obj, "domain", f"partition entry {i}"), f"entry {i} domain")
        if j in mapping:
            raise ModelError(f"link {j}: assigned twice in partition file")
        mapping[j] = p
    return mapping

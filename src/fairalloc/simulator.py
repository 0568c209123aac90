"""In-process message-passing execution of the link-by-link consensus method.

Each domain controller owns the links of one partition class and keeps
replicas of the route-owned variables for every route crossing it.  Rounds
are synchronous: every node computes from the messages of the previous
round, then all new messages are delivered at once.

Node layout.  A node keeps its link copies in one flat array ``copies`` in
incidence order (links ascending, member routes ascending) with the duals in
a parallel array; ``link_values[j]`` and ``link_duals[j]`` are views into
them.  Each local route has one slot per holder domain, self included, in
ascending domain order, in two arrays: ``aggregates`` (a holder's sum over
its copies of the route) and ``minima`` (a holder's minimum over them).  The
node's :class:`~fairalloc.solvers.RoundLayout` describes these arrays.  A
round takes the enforced allocation as the per-route minimum over the
slots, runs the solver's round kernel
:func:`~fairalloc.solvers.consensus_round` on the node's arrays, and writes
the node's new sum and minimum, over its copies in (route, link) order, into
its own slots.

Messages.  A node sends one :class:`PeerMessage` per peer domain it shares
routes with, carrying the shared routes in ascending order with two floats
each (its aggregate and its minimum); delivery stores them into the
receiver's slots for that sender.  The wire traffic is therefore still two
floats per shared route per peer per round.  :class:`RouteMessage` is the
per-route row of the optional message log.

Arithmetic matches the vectorized solver bit for bit, because both run the
same kernel, each slot holds the operand the solver sums in the same place,
and every step of the kernel treats each segment, link and route on its own.
The only schedule difference is that a controller applies the enforced
feasible minimum one round after the solver's eager extract, because the
peer minima travel inside messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# ``prox_values`` is unused here but stays bound: the benchmark's tracer tests wrap it under this name
from .fairness import FairnessObjective, PenaltyState, prox_values  # noqa: F401
from .model import Instance, Partition
from .numerics import segment_mins
from .projections import BatchedLinkProjector
from .solvers import ConsensusIndex, RoundLayout, consensus_round, initial_state, wire_floats_per_round
from .trace import format_value


class SimulationError(RuntimeError):
    """Raised when controller replicas diverge or inputs are malformed."""


@dataclass(frozen=True)
class RouteMessage:
    """One route's payload from one sender to one receiver (a message-log row)."""

    round_index: int
    sender: int
    receiver: int
    route: int
    value: float
    feasible_value: float


@dataclass(frozen=True)
class PeerMessage:
    """Everything one domain sends one peer in a round, routes ascending."""

    round_index: int
    sender: int
    receiver: int
    routes: np.ndarray
    values: np.ndarray
    feasible_values: np.ndarray


class OverheadMeter:
    """Counts floats actually put on the wire, per ordered domain pair."""

    def __init__(self):
        self.per_pair: dict[tuple[int, int], int] = {}
        self.per_round: dict[int, int] = {}

    def add(self, round_index: int, sender: int, receiver: int, floats: int) -> None:
        key = (sender, receiver)
        self.per_pair[key] = self.per_pair.get(key, 0) + floats
        self.per_round[round_index] = self.per_round.get(round_index, 0) + floats

    @property
    def total_floats(self) -> int:
        return sum(self.per_round.values())


@dataclass
class ControllerNode:
    """One domain's controller: flat link copies plus route-variable replicas."""

    domain: int
    alpha: float
    penalty: float
    routes: np.ndarray            # routes crossing this domain, ascending
    weights: np.ndarray           # their weights, same order
    links: list[int]              # owned links, ascending
    link_starts: np.ndarray       # offsets of each owned link's copies, len(links) + 1
    copies: np.ndarray            # owned link copies, incidence order
    duals: np.ndarray             # their duals, same order
    copy_index: np.ndarray        # incidence position of each copy
    layout: RoundLayout           # over ``routes``, the slots and ``copies``
    aggregates: np.ndarray        # per (local route, holder domain ascending)
    minima: np.ndarray            # same slots as ``aggregates``
    own_slots: np.ndarray         # per local route: this domain's slot
    outbox: dict[int, tuple[np.ndarray, np.ndarray]]  # peer -> (shared routes, own slots)
    inbox: dict[int, np.ndarray]  # peer -> its slots, shared routes ascending
    route_values: np.ndarray      # replicated route-owned copies
    route_duals: np.ndarray
    consensus: np.ndarray
    feasible: np.ndarray          # enforced allocation, lags the solver by one round
    link_values: dict[int, np.ndarray] = field(init=False)  # views into ``copies``
    link_duals: dict[int, np.ndarray] = field(init=False)   # views into ``duals``

    def __post_init__(self):
        bounds = list(zip(self.links, self.link_starts[:-1], self.link_starts[1:]))
        self.link_values = {j: self.copies[lo:hi] for j, lo, hi in bounds}
        self.link_duals = {j: self.duals[lo:hi] for j, lo, hi in bounds}

    def compute_round(self, round_index: int) -> list[PeerMessage]:
        """Lines of one synchronous round; returns one message per peer."""
        if not self.routes.size:
            return []
        self.feasible = segment_mins(self.minima, self.layout.slot_starts)
        self.consensus, self.route_values, sums, mins = consensus_round(
            self.layout, self.aggregates, self.route_values, self.copies, self.duals,
            self.route_duals, self.alpha, self.weights, self.penalty,
        )
        self.aggregates[self.own_slots] = sums
        self.minima[self.own_slots] = mins
        return [
            PeerMessage(round_index, self.domain, q, routes, self.aggregates[slots], self.minima[slots])
            for q, (routes, slots) in self.outbox.items()
        ]


def build_controllers(
    instance: Instance,
    partition: Partition,
    objective: FairnessObjective,
    penalty: float,
) -> list[ControllerNode]:
    """Controllers in the solver's initial state, every slot pre-seeded.

    The slots start from the equal-split aggregates and minima of
    ``initial_state``, so round ``k`` of the simulation consumes exactly the
    aggregates the vectorized solver consumes at iteration ``k``.
    """
    if not (penalty > 0 and np.isfinite(penalty)):
        raise SimulationError(f"penalty must be finite and > 0, got {penalty}")
    if objective.weights.size != instance.n_routes:
        raise SimulationError(
            f"objective has {objective.weights.size} weights for {instance.n_routes} routes"
        )
    index = ConsensusIndex(instance, partition)
    base = initial_state(index, PenaltyState(value=penalty, frozen=True))
    inc = instance.incidence
    domain_of_copy = np.asarray(partition.domain_of_link, dtype=np.intp)[inc.copy_link]
    # the solver's (route, domain) aggregation groups are the holder slots
    group_copies = index.perm_rd[index.rd_starts]
    group_route = inc.copy_route[group_copies]
    group_domain = domain_of_copy[group_copies]
    rd_domain = domain_of_copy[index.perm_rd]
    link_sizes = np.diff(inc.link_starts)
    nodes: list[ControllerNode] = []
    for p in range(1, partition.n_domains + 1):
        routes = np.array(partition.routes_by_domain[p], dtype=np.intp)
        links = list(partition.links_by_domain[p])
        copy_index = np.nonzero(domain_of_copy == p)[0]
        link_starts = np.concatenate(([0], np.cumsum(link_sizes[links])))
        copy_route = np.searchsorted(routes, inc.copy_route[copy_index])
        # this domain's copies in (route, link) order, as the solver groups them
        order = np.searchsorted(copy_index, index.perm_rd[rd_domain == p])
        route_starts = np.nonzero(np.diff(copy_route[order], prepend=-1))[0]
        local = np.zeros(instance.n_routes, dtype=bool)
        local[routes] = True
        groups = np.nonzero(local[group_route])[0]
        slot_route = group_route[groups]
        slot_domain = group_domain[groups]
        slot_starts = np.nonzero(np.diff(slot_route, prepend=-1))[0]
        outbox: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        inbox: dict[int, np.ndarray] = {}
        own_slots = np.nonzero(slot_domain == p)[0]
        for q in sorted(set(slot_domain.tolist()) - {p}):
            inbox[q] = np.nonzero(slot_domain == q)[0]
            shared = slot_route[inbox[q]]
            outbox[q] = (shared, own_slots[np.searchsorted(routes, shared)])
        nodes.append(
            ControllerNode(
                domain=p,
                alpha=objective.alpha,
                penalty=penalty,
                routes=routes,
                weights=objective.weights[routes],
                links=links,
                link_starts=link_starts,
                copies=base.link_values[copy_index],
                duals=np.zeros(copy_index.size),
                copy_index=copy_index,
                layout=RoundLayout(
                    slot_starts=slot_starts, divisor=index.layout.divisor[routes], copy_route=copy_route,
                    projector=BatchedLinkProjector(link_starts, instance.capacities[links]),
                    order=order, group_starts=route_starts,
                ),
                aggregates=base.sent_values[groups],
                minima=base.sent_mins[groups],
                own_slots=own_slots,
                outbox=outbox,
                inbox=inbox,
                route_values=base.route_values[routes],
                route_duals=np.zeros(routes.size),
                consensus=base.consensus[routes],
                feasible=base.extract[routes],
            )
        )
    return nodes


def _log_rows(messages: list[PeerMessage]) -> list[RouteMessage]:
    """One sender's messages as per-route rows, ordered by (route, receiver)."""
    if not messages:
        return []
    routes = np.concatenate([m.routes for m in messages])
    receivers = np.repeat([m.receiver for m in messages], [m.routes.size for m in messages])
    values = np.concatenate([m.values for m in messages])
    minima = np.concatenate([m.feasible_values for m in messages])
    first = messages[0]
    return [
        RouteMessage(
            round_index=first.round_index,
            sender=first.sender,
            receiver=int(receivers[i]),
            route=int(routes[i]),
            value=float(values[i]),
            feasible_value=float(minima[i]),
        )
        for i in np.lexsort((receivers, routes))
    ]


def run_round(
    controllers: list[ControllerNode],
    round_index: int,
    meter: OverheadMeter | None = None,
    log: list[RouteMessage] | None = None,
) -> None:
    """One synchronous round: all nodes compute, then all messages deliver."""
    outgoing: list[PeerMessage] = []
    for node in controllers:
        sent = node.compute_round(round_index)
        outgoing.extend(sent)
        if log is not None:
            log.extend(_log_rows(sent))
    by_domain = {node.domain: node for node in controllers}
    for msg in outgoing:
        receiver = by_domain[msg.receiver]
        slots = receiver.inbox[msg.sender]
        receiver.aggregates[slots] = msg.values
        receiver.minima[slots] = msg.feasible_values
        if meter is not None:
            meter.add(round_index, msg.sender, msg.receiver, 2 * msg.routes.size)


def inject_weight_update(controllers: list[ControllerNode], weights: np.ndarray) -> None:
    """Swap in new positive route weights without touching solver state."""
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise SimulationError("weights must be positive and finite")
    for node in controllers:
        if node.routes.size and int(node.routes.max()) >= w.size:
            raise SimulationError("weight vector shorter than the highest route id")
        node.weights = w[node.routes]


def gather_route_replicas(controllers: list[ControllerNode], n_routes: int, attr: str) -> np.ndarray:
    """Collect a replicated per-route array (feasible / consensus / route_values /
    route_duals), raising if any two domains disagree bitwise."""
    out = np.full(n_routes, np.nan)
    for node in controllers:
        arr = getattr(node, attr)
        held = out[node.routes]
        diverged = ~np.isnan(held) & (held != arr)
        if diverged.any():
            r = int(node.routes[np.argmax(diverged)])
            raise SimulationError(f"route {r}: {attr} replicas diverged")
        out[node.routes] = arr
    return out


def gather_allocation(controllers: list[ControllerNode], n_routes: int) -> np.ndarray:
    """Collect the enforced allocation, checking replicas agree exactly."""
    out = gather_route_replicas(controllers, n_routes, "feasible")
    if np.any(np.isnan(out)):
        raise SimulationError("some route is held by no controller")
    return out


def gather_link_values(controllers: list[ControllerNode], instance: Instance) -> np.ndarray:
    """Flatten per-link copies back into the instance's incidence layout."""
    flat = np.full(instance.incidence.n_copies, np.nan)
    for node in controllers:
        flat[node.copy_index] = node.copies
    if np.any(np.isnan(flat)):
        raise SimulationError("some link is owned by no controller")
    return flat


@dataclass(frozen=True)
class OverheadReport:
    rounds: int
    floats_per_round: int
    total_floats: int
    per_pair: dict[tuple[int, int], int]


def measure_overhead(
    instance: Instance,
    partition: Partition,
    objective: FairnessObjective,
    penalty: float,
    rounds: int,
) -> OverheadReport:
    """Run the simulation and report measured wire traffic.

    Per round, domain ``p`` sends two floats to every other domain for each
    route they share, so the per-round total is
    ``2 * sum_r holders(r) * (holders(r) - 1)``.
    """
    controllers = build_controllers(instance, partition, objective, penalty)
    meter = OverheadMeter()
    for k in range(rounds):
        run_round(controllers, round_index=k, meter=meter)
    return OverheadReport(
        rounds=rounds,
        floats_per_round=wire_floats_per_round(partition),
        total_floats=meter.total_floats,
        per_pair=dict(meter.per_pair),
    )


def export_message_log(log: list[RouteMessage], path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("round,sender,receiver,route,value,feasible_value\n")
        for m in log:
            fh.write(
                f"{m.round_index},{m.sender},{m.receiver},{m.route},"
                f"{format_value(m.value)},{format_value(m.feasible_value)}\n"
            )

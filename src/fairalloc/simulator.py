"""In-process message-passing execution of the link-by-link consensus method.

Domain ``p``'s controller owns the links ``j`` with ``domain_of_link[j] == p``
and keeps replicas of the route-owned variables for every route crossing
them; the group table of one ``ConsensusIndex`` says which domains hold each
route.  Rounds are synchronous: every node computes from the messages of
the previous round, then all new messages are delivered at once.

Node layout.  A node's :class:`~fairalloc.solvers.RoundLayout` is
``ConsensusIndex.round_layout`` of its domain's links, the function that
also lays out every link for the vectorized solver.  The node keeps its link
copies in one flat array ``copies`` in incidence order (links ascending,
member routes ascending), ``link_values[j]`` a view into it, and the duals in
a parallel array.  Each local route has one slot per holder domain, self
included, in ascending domain order (the solver's (route, domain) groups),
in two arrays: ``aggregates`` (a holder's sum over its copies of the route)
and ``minima`` (a holder's minimum over them).  A round takes the enforced
allocation as the per-route minimum over the slots, runs the solver's round
kernel :func:`~fairalloc.solvers.consensus_round` on the node's arrays, and
writes the node's new sum and minimum, over its copies in (route, link)
order, into its own slots.

Messages.  A node sends one :class:`PeerMessage` per peer domain it shares
routes with, carrying the shared routes in ascending order with two floats
each (its aggregate and its minimum); delivery stores them into the
receiver's slots for that sender.  The wire traffic is therefore still two
floats per shared route per peer per round.  :class:`RouteMessage` is the
per-route row of the optional message log.

Arithmetic matches the vectorized solver bit for bit, because both run the
same kernel on layouts from the same function, each slot holds the operand
the solver sums in the same place, and every step of the kernel treats each
segment, link and route on its own.  The only schedule difference is that a
controller applies the enforced feasible minimum one round after the
solver's eager extract, because the peer minima travel inside messages.
Both start at the projected equal split, feasible from round 0 on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# ``prox_values`` is unused here but stays bound: the benchmark's tracer tests wrap it under this name
from .fairness import FairnessObjective, PenaltyState, prox_values  # noqa: F401
from .model import Instance, Partition
from .numerics import segment_mins
from .solvers import ConsensusIndex, RoundLayout, consensus_round, initial_state
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
    layout: RoundLayout           # of the owned links; its ``routes`` cross this domain
    weights: np.ndarray           # of ``layout.routes``, same order
    links: list[int]              # owned links, ascending
    copies: np.ndarray            # owned link copies, incidence order
    duals: np.ndarray             # their duals, same order
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

    def __post_init__(self):
        bounds = zip(self.links, self.layout.link_starts[:-1], self.layout.link_starts[1:])
        self.link_values = {j: self.copies[lo:hi] for j, lo, hi in bounds}

    def compute_round(self, round_index: int) -> list[PeerMessage]:
        """Lines of one synchronous round; returns one message per peer."""
        if not self.layout.routes.size:
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

    Each node is a slice of ``initial_state``, the projected equal split, so
    round ``k`` consumes exactly the aggregates the vectorized solver
    consumes at iteration ``k`` and the enforced allocation is feasible
    before any round."""
    if not (penalty > 0 and np.isfinite(penalty)):
        raise SimulationError(f"penalty must be finite and > 0, got {penalty}")
    if objective.weights.size != instance.n_routes:
        raise SimulationError(
            f"objective has {objective.weights.size} weights for {instance.n_routes} routes"
        )
    if len(partition.domain_of_link) != instance.n_links:
        raise SimulationError(f"partition maps {len(partition.domain_of_link)} links, instance has {instance.n_links}")
    index = ConsensusIndex(instance, partition)
    domain_of_link = np.asarray(partition.domain_of_link)
    base = initial_state(index, PenaltyState(value=penalty, frozen=True))
    own_slot_of_route = np.zeros(instance.n_routes, dtype=np.intp)
    nodes: list[ControllerNode] = []
    for p in range(1, partition.n_domains + 1):
        links = np.flatnonzero(domain_of_link == p)
        layout = index.round_layout(links)
        slot_route = index.group_route[layout.slots]
        slot_domain = index.group_domain[layout.slots]
        own_slots = np.nonzero(slot_domain == p)[0]
        own_slot_of_route[slot_route[own_slots]] = own_slots
        inbox = {q: np.nonzero(slot_domain == q)[0] for q in sorted(set(slot_domain.tolist()) - {p})}
        outbox = {q: (slot_route[s], own_slot_of_route[slot_route[s]]) for q, s in inbox.items()}
        nodes.append(
            ControllerNode(
                domain=p,
                alpha=objective.alpha,
                penalty=penalty,
                layout=layout,
                weights=objective.weights[layout.routes],
                links=links.tolist(),
                copies=base.link_values[layout.copies],
                duals=np.zeros(layout.copies.size),
                aggregates=base.sent_values[layout.slots],
                minima=base.sent_mins[layout.slots],
                own_slots=own_slots,
                outbox=outbox,
                inbox=inbox,
                route_values=base.route_values[layout.routes],
                route_duals=np.zeros(layout.routes.size),
                consensus=base.consensus[layout.routes],
                feasible=base.extract[layout.routes],
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
    # every route lies on some node's link, so the highest id held is the last one
    n_routes = 1 + max((int(node.layout.routes[-1]) for node in controllers if node.layout.routes.size), default=-1)
    if w.shape != (n_routes,) or np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise SimulationError(f"weights must be positive and finite, one per route ({n_routes}); got shape {w.shape}")
    for node in controllers:
        node.weights = w[node.layout.routes]


def gather_route_replicas(controllers: list[ControllerNode], n_routes: int, attr: str) -> np.ndarray:
    """Collect a replicated per-route array (feasible / consensus / route_values /
    route_duals), raising if any two domains disagree bitwise."""
    out = np.full(n_routes, np.nan)
    for node in controllers:
        arr = getattr(node, attr)
        held = out[node.layout.routes]
        diverged = ~np.isnan(held) & (held != arr)
        if diverged.any():
            r = int(node.layout.routes[np.argmax(diverged)])
            raise SimulationError(f"route {r}: {attr} replicas diverged")
        out[node.layout.routes] = arr
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
        flat[node.layout.copies] = node.copies
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
    route they share: the predicted per-round total, two floats per route of
    every outbox, is ``2 * sum_r holders(r) * (holders(r) - 1)``.
    """
    controllers = build_controllers(instance, partition, objective, penalty)
    meter = OverheadMeter()
    for k in range(rounds):
        run_round(controllers, round_index=k, meter=meter)
    return OverheadReport(
        rounds=rounds,
        floats_per_round=sum(2 * routes.size for node in controllers for routes, _ in node.outbox.values()),
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

"""Correctness gates, computed by the benchmark itself and run untimed.

Each gate returns a list of human-readable failures; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np

from fairalloc.fairness import FairnessObjective, PenaltyState
from fairalloc.model import Instance, Partition
from fairalloc.simulator import OverheadMeter, gather_allocation, gather_link_values
from fairalloc.solvers import ConsensusIndex, fdadmm_round, initial_state

# Loads are summed here with math.fsum (correctly rounded) rather than the
# package's canonical tree, so a link filled exactly to capacity by the
# package's arithmetic may read a few ulps high; anything beyond this
# relative slack is a real overload.
LOAD_SLACK = 1e-12


def overloads(instance: Instance, allocation: np.ndarray) -> list[str]:
    """Links whose load, summed route by route here, exceeds capacity."""
    x = np.asarray(allocation, dtype=np.float64)
    if x.shape != (instance.n_routes,):
        return [f"allocation has shape {x.shape}, expected ({instance.n_routes},)"]
    if not np.all(np.isfinite(x)) or np.any(x < 0.0):
        return ["allocation has a negative or non-finite rate"]
    per_link: list[list[float]] = [[] for _ in instance.links]
    for route in instance.routes:
        for j in route.links:
            per_link[j].append(float(x[route.id]))
    failures = []
    for link, rates in zip(instance.links, per_link):
        load = math.fsum(rates)
        if load > link.capacity * (1.0 + LOAD_SLACK):
            failures.append(f"link {link.id}: load {load!r} > capacity {link.capacity!r}")
    return failures


def expected_floats_per_round(instance: Instance, domain_of_link) -> int:
    """``2 * sum_r h_r (h_r - 1)``, ``h_r`` the number of domains holding route ``r``."""
    total = 0
    for route in instance.routes:
        h = len({domain_of_link[j] for j in route.links})
        total += 2 * h * (h - 1)
    return total


def metered_floats(instance: Instance, partition: Partition, meter: OverheadMeter, rounds: int) -> list[str]:
    expected = expected_floats_per_round(instance, partition.domain_of_link)
    return [
        f"round {k}: metered {meter.per_round.get(k, 0)} floats, expected {expected}"
        for k in range(rounds)
        if meter.per_round.get(k, 0) != expected
    ]


def replay_rounds(
    instance: Instance, partition: Partition, objective: FairnessObjective, penalty: float, rounds: int
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Run ``rounds`` vectorized rounds at a frozen penalty.

    Returns the link copies after the last round, the feasible extract the
    simulator enforces after ``rounds`` rounds (one round behind the
    vectorized extract), and the extract after every round.
    """
    state = initial_state(ConsensusIndex(instance, partition), PenaltyState(value=penalty, frozen=True))
    extracts = [state.extract.copy()]
    for _ in range(rounds):
        fdadmm_round(state, objective)
        extracts.append(state.extract.copy())
    return state.link_values.copy(), extracts[rounds - 1], extracts[1:]


def simulator_matches(controllers, instance: Instance, link_values: np.ndarray, enforced: np.ndarray) -> list[str]:
    """Bitwise comparison of the simulated state with the vectorized replay."""
    failures = []
    gathered_links = gather_link_values(controllers, instance)
    if not np.array_equal(gathered_links, link_values):
        bad = int(np.count_nonzero(gathered_links != link_values))
        failures.append(f"{bad} link copies differ from the vectorized rounds")
    gathered = gather_allocation(controllers, instance.n_routes)
    if not np.array_equal(gathered, enforced):
        bad = int(np.count_nonzero(gathered != enforced))
        failures.append(f"{bad} enforced rates differ from the vectorized rounds")
    return failures

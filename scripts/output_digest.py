#!/usr/bin/env python3
"""SHA-256 digests over the solver outputs that must stay bit-identical.

Runs a fixed grid on small seeded instances: fd-admm, c-admm and lagr with
the adaptive and a fixed penalty, each cold and then warm-started (once at
the same penalty, once at a different one, so the duals are rescaled);
a converged fd-admm solve; ``reference_solution`` cold and warm; and
``run_dynamic`` for all three algorithms.  It hashes each instance's
``equal_split_extract``, the start of every solver, and every allocation,
best feasible point, solver-state array, iteration count and trace CSV
(the bytes ``write_trace`` writes).  It prints one digest per algorithm
group, then one over everything.  The fd-admm group holds the equal split
(fd-admm's iteration-0 extract), fd-admm's own solves and every reference
(``reference_solution``, which fd-admm solves, and the per-event references
of ``run_dynamic``, which ``fair_optimum`` solves); the c-admm and lagr
groups hold those algorithms' solves and ``run_dynamic`` traces.  The
``simulator`` group runs the message-passing simulator for 20 rounds on
three cases: one with a weight update injected after round 10, one whose
partition gives every untraversed link to a domain that holds no route, and
a balanced partition into 16
domains of one or two links each; it hashes the allocation the controllers
enforce right after ``build_controllers``, the exported message-log CSV,
the meter's per-pair and per-round counts, and the gathered link copies,
enforced allocation and route replicas after the rounds, then the report of
``measure_overhead`` over 20 rounds of the case (without the weight
update): its rounds, predicted floats per round, metered total and sorted
per-pair counts.  The ``alpha-0.5`` group pins the one exponent that the
other groups leave out, α = 1/2, on one seeded instance: a 25-round fd-admm
solve, a 25-round c-admm solve and 20 simulated rounds hashed as above.  Two
versions of the package that print the same digest for a group produce the
same bits on that group's part of the grid.  The total covers the three
solver groups only, so it compares with digests printed before the
simulator and ``alpha-0.5`` groups existed.

The served mean gaps of ``run_dynamic`` are left out.  They are scores,
not outputs: the served points are the equal split, hashed here on its own,
and best feasible points whose utilities the hashed traces already hold.

Example:
    PYTHONPATH=src python scripts/output_digest.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import tempfile
from pathlib import Path

import numpy as np

from fairalloc.experiments import Scenario, run_dynamic
from fairalloc.fairness import default_objective
from fairalloc.model import balanced_assignment, build_partition, generate_random
from fairalloc.simulator import (
    OverheadMeter,
    build_controllers,
    export_message_log,
    gather_allocation,
    gather_link_values,
    gather_route_replicas,
    inject_weight_update,
    measure_overhead,
    run_round,
)
from fairalloc.solvers import ALGORITHMS, SolverConfig, equal_split_extract, reference_solution, solve
from fairalloc.trace import write_trace


def _trace_bytes(rows, workdir: Path) -> bytes:
    path = workdir / "trace.csv"
    write_trace(rows, path)
    return path.read_bytes()


def _array(x) -> bytes:
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()


def _result_entries(group: str, name: str, result, workdir: Path):
    yield group, f"{name}.allocation", _array(result.allocation)
    if result.best_feasible is not None:
        yield group, f"{name}.best_feasible", _array(result.best_feasible)
    yield group, f"{name}.iterations", f"{result.iterations} {result.converged} {result.residuals!r}".encode()
    yield group, f"{name}.trace", _trace_bytes(result.trace, workdir)
    state = result.state
    for f in dataclasses.fields(state):
        value = getattr(state, f.name)
        if isinstance(value, np.ndarray):
            yield group, f"{name}.state.{f.name}", _array(value)
    if hasattr(state, "penalty"):
        yield group, f"{name}.state.penalty", repr(state.penalty).encode()


def entries(workdir: Path):
    """``(group, name, bytes)`` for every hashed output, in a fixed order."""
    instances = [
        generate_random(seed=3, n_nodes=12, n_links=20, n_routes=30, alpha=1.0),
        generate_random(seed=4, n_nodes=10, n_links=16, n_routes=24, alpha=2.0),
    ]
    for i, inst in enumerate(instances):
        part = build_partition(inst, balanced_assignment(inst, 3))
        yield "fd-admm", f"i{i}.equal_split", _array(equal_split_extract(inst))
        for algorithm in ALGORITHMS:
            for penalty in ("adaptive", 0.7):
                cfg = SolverConfig(penalty=penalty, tol_primal=0.0, tol_dual=0.0, max_iters=25)
                name = f"i{i}.{algorithm}.{penalty}"
                cold = solve(inst, part, algorithm, config=cfg)
                yield from _result_entries(algorithm, f"{name}.cold", cold, workdir)
                warm = solve(inst, part, algorithm, config=cfg, warm_state=cold.state, event_index=1)
                yield from _result_entries(algorithm, f"{name}.warm", warm, workdir)
                moved = dataclasses.replace(cfg, penalty=1.3)
                rescaled = solve(inst, part, algorithm, config=moved, warm_state=cold.state, event_index=2)
                yield from _result_entries(algorithm, f"{name}.rescaled", rescaled, workdir)
        converged = solve(inst, part, "fd-admm", config=SolverConfig(tol_primal=1e-6, tol_dual=1e-6))
        yield from _result_entries("fd-admm", f"i{i}.converged", converged, workdir)
        ref = reference_solution(inst, return_result=True)
        yield from _result_entries("fd-admm", f"i{i}.reference", ref, workdir)
        again = reference_solution(inst, tol=1e-7, warm_state=ref.state, return_result=True)
        yield from _result_entries("fd-admm", f"i{i}.reference.warm", again, workdir)
        scenario = Scenario(amplitude=0.5, n_events=3, iters_per_event=5, seed=i)
        for algorithm in ALGORITHMS:
            dyn = run_dynamic(inst, part, algorithm, scenario)
            yield algorithm, f"i{i}.dynamic.{algorithm}.trace", _trace_bytes(dyn.trace, workdir)
            for t, ref_alloc in enumerate(dyn.references):
                yield "fd-admm", f"i{i}.dynamic.{algorithm}.reference{t}", _array(ref_alloc)


def _routeless_partition(instance, n_domains: int):
    """``balanced_assignment`` with every untraversed link moved to one more domain."""
    carrying = {j for route in instance.routes for j in route.links}
    assignment = balanced_assignment(instance, n_domains)
    for j in range(instance.n_links):
        if j not in carrying:
            assignment[j] = n_domains + 1
    return build_partition(instance, assignment)


def _simulated_entries(name, inst, part, update_at, workdir: Path):
    """``(name, bytes)`` for 20 simulated rounds of one case, with a weight
    update injected before round ``update_at`` unless it is ``None``."""
    objective = default_objective(inst)
    controllers = build_controllers(inst, part, objective, penalty=0.8)
    yield f"{name}.start", _array(gather_allocation(controllers, inst.n_routes))
    meter = OverheadMeter()
    log = []
    for k in range(20):
        if k == update_at:
            weights = inst.weights * np.linspace(0.6, 1.4, inst.n_routes)
            inject_weight_update(controllers, weights)
        run_round(controllers, k, meter=meter, log=log)
    path = workdir / "messages.csv"
    export_message_log(log, path)
    yield f"{name}.messages", path.read_bytes()
    yield f"{name}.per_pair", repr(sorted(meter.per_pair.items())).encode()
    yield f"{name}.per_round", repr(sorted(meter.per_round.items())).encode()
    yield f"{name}.link_values", _array(gather_link_values(controllers, inst))
    yield f"{name}.allocation", _array(gather_allocation(controllers, inst.n_routes))
    for attr in ("consensus", "route_values", "route_duals"):
        yield f"{name}.{attr}", _array(gather_route_replicas(controllers, inst.n_routes, attr))
    report = measure_overhead(inst, part, objective, penalty=0.8, rounds=20)
    yield f"{name}.overhead", repr(
        (report.rounds, report.floats_per_round, report.total_floats, sorted(report.per_pair.items()))
    ).encode()


def simulator_entries(workdir: Path):
    """``(name, bytes)`` for 20 simulated rounds on each simulator case."""
    first = generate_random(seed=3, n_nodes=12, n_links=20, n_routes=30, alpha=1.0)
    second = generate_random(seed=5, n_nodes=12, n_links=30, n_routes=10, alpha=2.0)
    cases = [
        ("weights", first, build_partition(first, balanced_assignment(first, 4)), 10),
        ("routeless", second, _routeless_partition(second, 3), None),
        ("domains16", first, build_partition(first, balanced_assignment(first, 16)), None),
    ]
    for case in cases:
        yield from _simulated_entries(*case, workdir)


def half_entries(workdir: Path):
    """``(name, bytes)`` for fd-admm, c-admm and the simulator at α = 1/2."""
    inst = generate_random(seed=6, n_nodes=12, n_links=20, n_routes=30, alpha=0.5)
    part = build_partition(inst, balanced_assignment(inst, 4))
    cfg = SolverConfig(tol_primal=0.0, tol_dual=0.0, max_iters=25)
    for algorithm in ("fd-admm", "c-admm"):
        result = solve(inst, part, algorithm, config=cfg)
        for _, name, data in _result_entries("alpha-0.5", algorithm, result, workdir):
            yield name, data
    yield from _simulated_entries("simulator", inst, part, None, workdir)


def main() -> int:
    groups = {algorithm: hashlib.sha256() for algorithm in ALGORITHMS}
    total = hashlib.sha256()
    simulator = hashlib.sha256()
    half = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for group, name, data in entries(Path(tmp)):
            record = name.encode() + b"\0" + hashlib.sha256(data).digest()
            groups[group].update(record)
            total.update(record)
        for name, data in simulator_entries(Path(tmp)):
            simulator.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
        for name, data in half_entries(Path(tmp)):
            half.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    for algorithm, digest in groups.items():
        print(f"{algorithm} {digest.hexdigest()}")
    print(f"simulator {simulator.hexdigest()}")
    print(f"alpha-0.5 {half.hexdigest()}")
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

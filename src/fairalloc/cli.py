"""Command-line driver: instance generation, solving, and experiments.

Exit codes: 0 on success, 2 for usage or input errors (bad flags, missing or
malformed files), 1 for runtime failures (solver did not converge where
convergence is required, projection budget exhausted).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .experiments import (
    ExperimentError,
    Scenario,
    load_curve,
    run_dynamic,
    sweep_penalty,
    write_load_curve,
    write_sweep,
)
from .fairness import FairnessError, FairnessObjective
from .model import (
    ModelError,
    balanced_assignment,
    build_partition,
    generate_random,
    load_instance,
    load_partition,
    save_instance,
    save_partition,
)
from .projections import DykstraError
from .solvers import ALGORITHMS, SolverConfig, SolverError, solve
from .trace import format_value, write_trace


def _parse_penalty(text: str):
    if text == "adaptive":
        return "adaptive"
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'adaptive', got {text!r}")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"penalty must be > 0, got {text!r}")
    return value


def _amplitude(text: str) -> float:
    value = float(text)
    if not (0.0 <= value <= 1.0):
        raise argparse.ArgumentTypeError(f"amplitude must lie in [0, 1], got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairalloc",
        description="Alpha-fair bandwidth allocation with anytime-feasible consensus solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random connected instance (and optionally a partition)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--nodes", type=int, default=24)
    gen.add_argument("--links", type=int, default=45)
    gen.add_argument("--routes", type=int, default=200)
    gen.add_argument("--cap-min", type=float, default=1.0)
    gen.add_argument("--cap-max", type=float, default=10.0)
    gen.add_argument("--weight-min", type=float, default=1.0)
    gen.add_argument("--weight-max", type=float, default=1.0)
    gen.add_argument("--alpha", type=float, default=1.0)
    gen.add_argument("--out", required=True, help="instance JSON path")
    gen.add_argument("--domains", type=int, default=None, help="also emit a balanced partition")
    gen.add_argument("--partition-out", default=None, help="partition JSON path (requires --domains)")

    def add_solver_flags(p):
        p.add_argument("--instance", required=True)
        p.add_argument("--partition", default=None)
        p.add_argument("--alpha", type=float, default=None, help="override the instance's alpha")
        p.add_argument("--lambda", dest="penalty", type=_parse_penalty, default="adaptive",
                       help="reciprocal penalty value, or 'adaptive'")
        p.add_argument("--adapt-tau", type=int, default=30)

    sol = sub.add_parser("solve", help="run one algorithm on one instance")
    sol.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    add_solver_flags(sol)
    # the dynamic scenario sets its own tolerances and round budget
    sol.add_argument("--tol-primal", type=float, default=1e-6)
    sol.add_argument("--tol-dual", type=float, default=1e-6)
    sol.add_argument("--max-iters", type=int, default=100_000)
    sol.add_argument("--time-budget", type=float, default=None, help="wall-clock seconds")
    sol.add_argument("--out", required=True, help="trace CSV path")
    sol.add_argument("--solution", default=None, help="solution JSON path (default: <out>.solution.json)")

    dyn = sub.add_parser("dynamic", help="weight-perturbation scenario with a fixed round budget per event")
    dyn.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    add_solver_flags(dyn)
    dyn.add_argument("--amplitude", type=_amplitude, required=True)
    dyn.add_argument("--events", type=int, default=20)
    dyn.add_argument("--iters-per-event", type=int, default=10)
    dyn.add_argument("--seed", type=int, default=0)
    dyn.add_argument("--out", required=True, help="trace CSV path")

    swp = sub.add_parser("sweep-lambda", help="iterations-to-tolerance for a grid of penalties plus the adaptive rule")
    swp.add_argument("--instance", required=True)
    swp.add_argument("--partition", default=None)
    grid = swp.add_mutually_exclusive_group()
    grid.add_argument("--grid", default=None, help="comma-separated penalty values")
    grid.add_argument("--decades", type=int, default=2, help="logarithmic grid 10^-N .. 10^N, 2 points per decade")
    swp.add_argument("--tol", type=float, default=1e-3)
    swp.add_argument("--max-iters", type=int, default=50_000)
    swp.add_argument("--out", required=True, help="sweep CSV path")

    load = sub.add_parser("loadcurve", help="iterations-to-tolerance across instances of growing load")
    load.add_argument("--instances", nargs="+", required=True)
    load.add_argument("--tol", type=float, default=1e-3)
    load.add_argument("--max-iters", type=int, default=50_000)
    load.add_argument("--lambda", dest="penalty", type=_parse_penalty, default="adaptive")
    load.add_argument("--out", required=True, help="curve CSV path")

    return parser


def _load_inputs(args):
    instance = load_instance(args.instance)
    partition = None
    if getattr(args, "partition", None):
        partition = build_partition(instance, load_partition(args.partition))
    objective = None
    if getattr(args, "alpha", None) is not None:
        objective = FairnessObjective(alpha=args.alpha, weights=instance.weights)
    return instance, partition, objective


def _cmd_gen(args) -> int:
    instance = generate_random(
        seed=args.seed,
        n_nodes=args.nodes,
        n_links=args.links,
        n_routes=args.routes,
        capacity_range=(args.cap_min, args.cap_max),
        weight_range=(args.weight_min, args.weight_max),
        alpha=args.alpha,
    )
    save_instance(instance, args.out)
    print(f"wrote {args.out}: {instance.n_links} links, {instance.n_routes} routes, alpha={instance.alpha:g}")
    if args.partition_out is not None and args.domains is None:
        raise ModelError("--partition-out requires --domains")
    if args.domains is not None:
        assignment = balanced_assignment(instance, args.domains)
        build_partition(instance, assignment)  # validates before writing
        path = args.partition_out or (args.out + ".partition.json")
        save_partition(assignment, path)
        print(f"wrote {path}: {args.domains} domains")
    return 0


def _cmd_solve(args) -> int:
    instance, partition, objective = _load_inputs(args)
    config = SolverConfig(
        penalty=args.penalty,
        adapt_tau=args.adapt_tau,
        tol_primal=args.tol_primal,
        tol_dual=args.tol_dual,
        max_iters=args.max_iters,
        time_budget=args.time_budget,
    )
    result = solve(instance, partition, args.algorithm, config=config, objective=objective)
    write_trace(result.trace, args.out)
    solution_path = args.solution or (args.out + ".solution.json")
    last_value = result.trace[-1].objective_value if result.trace else float("nan")
    payload = {
        "algorithm": args.algorithm,
        "converged": result.converged,
        "iterations": result.iterations,
        "objective_value": last_value if np.isfinite(last_value) else None,
        "allocation": [float(x) for x in result.allocation],
    }
    with open(solution_path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    status = "converged" if result.converged else "stopped"
    print(
        f"{args.algorithm} {status} after {result.iterations} iterations "
        f"(primal {result.residuals.primal:.3e}, dual {result.residuals.dual:.3e})"
    )
    print(f"wrote {args.out} and {solution_path}")
    return 0


def _cmd_dynamic(args) -> int:
    instance, partition, _ = _load_inputs(args)
    if args.alpha is not None:
        # the scenario derives per-event objectives itself, so fold the
        # override into the instance instead of passing an objective
        instance = dataclasses.replace(instance, alpha=args.alpha)
    scenario = Scenario(
        amplitude=args.amplitude,
        n_events=args.events,
        iters_per_event=args.iters_per_event,
        seed=args.seed,
    )
    config = SolverConfig(penalty=args.penalty, adapt_tau=args.adapt_tau)
    result = run_dynamic(instance, partition, args.algorithm, scenario, config=config)
    write_trace(result.trace, args.out)
    print(
        f"{args.algorithm}: mean gap {format_value(result.mean_gap)}, "
        f"mean violated links {format_value(result.mean_violation)}%"
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    instance, partition, _ = _load_inputs(args)
    if args.grid is not None:
        try:
            penalties = [float(tok) for tok in args.grid.split(",") if tok.strip()]
        except ValueError:
            raise ModelError(f"--grid must be comma-separated numbers, got {args.grid!r}")
        if not penalties or any(v <= 0 for v in penalties):
            raise ModelError("--grid needs at least one positive value")
    else:
        n = args.decades
        penalties = list(np.logspace(-n, n, 4 * n + 1))
    points = sweep_penalty(
        instance, penalties, tol=args.tol, max_iters=args.max_iters, partition=partition
    )
    write_sweep(points, args.out)
    fixed = [p for p in points if p.mode == "fixed" and p.converged]
    adaptive = [p for p in points if p.mode == "adaptive"]
    if fixed:
        best = min(fixed, key=lambda p: p.iterations)
        print(f"best fixed penalty {format_value(best.penalty)}: {best.iterations} iterations")
    if adaptive:
        print(
            f"adaptive penalty froze at {format_value(adaptive[0].penalty)}: "
            f"{adaptive[0].iterations} iterations"
        )
    print(f"wrote {args.out}")
    return 0


def _cmd_loadcurve(args) -> int:
    instances = [load_instance(path) for path in args.instances]
    points = load_curve(instances, tol=args.tol, max_iters=args.max_iters, penalty=args.penalty)
    write_load_curve(points, args.out)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "dynamic": _cmd_dynamic,
    "sweep-lambda": _cmd_sweep,
    "loadcurve": _cmd_loadcurve,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ModelError, ExperimentError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, DykstraError, FairnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

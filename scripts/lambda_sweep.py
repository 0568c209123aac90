#!/usr/bin/env python3
"""Penalty sweep: iterations-to-tolerance across a grid of fixed penalties.

Generates a seeded random instance, runs the adaptive rule once to learn its
frozen penalty, then sweeps fixed penalties on a logarithmic grid centered at
that value.  The resulting CSV is the classic U-shaped curve with the
adaptive row alongside it.

Example:
    python scripts/lambda_sweep.py --out results/sweep.csv
"""

from __future__ import annotations

import argparse

from fairalloc.experiments import sweep_penalty, write_sweep
from fairalloc.model import generate_random
from fairalloc.trace import format_value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=8, help="instance seed")
    parser.add_argument("--nodes", type=int, default=40)
    parser.add_argument("--links", type=int, default=90)
    parser.add_argument("--routes", type=int, default=200)
    parser.add_argument("--cap-min", type=float, default=5.0)
    parser.add_argument("--cap-max", type=float, default=50.0)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--decades", type=int, default=3, help="grid spans lambda* x 10^-N .. 10^N")
    parser.add_argument("--per-decade", type=int, default=2, help="grid points per decade")
    parser.add_argument("--tol", type=float, default=1e-3)
    parser.add_argument("--max-iters", type=int, default=50_000)
    parser.add_argument("--out", required=True, help="sweep CSV path")
    args = parser.parse_args()

    instance = generate_random(
        seed=args.seed,
        n_nodes=args.nodes,
        n_links=args.links,
        n_routes=args.routes,
        capacity_range=(args.cap_min, args.cap_max),
        alpha=args.alpha,
    )
    adaptive = sweep_penalty(
        instance, penalties=[], tol=args.tol, max_iters=args.max_iters, include_adaptive=True
    )[0]
    print(
        f"adaptive: lambda* = {format_value(adaptive.penalty)}, "
        f"{adaptive.iterations} iterations, converged = {adaptive.converged}"
    )
    steps = args.decades * args.per_decade
    grid = [adaptive.penalty * 10.0 ** (k / args.per_decade) for k in range(-steps, steps + 1)]
    points = sweep_penalty(
        instance, penalties=grid, tol=args.tol, max_iters=args.max_iters, include_adaptive=False
    )
    write_sweep([adaptive] + points, args.out)
    converged = [p for p in points if p.converged]
    if converged:
        best = min(converged, key=lambda p: p.iterations)
        print(
            f"best fixed: lambda = {format_value(best.penalty)}, {best.iterations} iterations "
            f"-> adaptive/best ratio {adaptive.iterations / best.iterations:.2f}"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

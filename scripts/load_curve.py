#!/usr/bin/env python3
"""Load curve: iterations-to-tolerance as the network gets more crowded.

Generates a family of instances on a fixed topology with a growing number of
routes, runs the consensus method with the adaptive penalty on each, and
writes iterations against mean link load (average routes per link).

Example:
    python scripts/load_curve.py --out results/loadcurve.csv
"""

from __future__ import annotations

import argparse

from fairalloc.experiments import load_curve, write_load_curve
from fairalloc.model import generate_random


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="instance seed")
    parser.add_argument("--nodes", type=int, default=40)
    parser.add_argument("--links", type=int, default=90)
    parser.add_argument("--cap-min", type=float, default=5.0)
    parser.add_argument("--cap-max", type=float, default=50.0)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument(
        "--routes",
        default="50,100,150,200,300,400",
        help="comma-separated route counts, one instance each",
    )
    parser.add_argument("--tol", type=float, default=1e-3)
    parser.add_argument("--max-iters", type=int, default=50_000)
    parser.add_argument("--out", required=True, help="curve CSV path")
    args = parser.parse_args()

    counts = [int(tok) for tok in args.routes.split(",") if tok.strip()]
    instances = [
        generate_random(
            seed=args.seed,
            n_nodes=args.nodes,
            n_links=args.links,
            n_routes=n,
            capacity_range=(args.cap_min, args.cap_max),
            alpha=args.alpha,
        )
        for n in counts
    ]
    points = load_curve(instances, tol=args.tol, max_iters=args.max_iters)
    write_load_curve(points, args.out)
    for p in points:
        print(
            f"{p.n_routes:>4} routes: mean load {p.mean_link_load:.2f}, "
            f"{p.iterations} iterations, converged = {p.converged}"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Weight-chasing study: consensus method vs dual-gradient baseline.

Generates a seeded random instance, then for each weight amplitude runs both
algorithms through the same event schedule with a fixed round budget per
event, scoring each against per-event high-accuracy references (shared
between the two runs via a cache).  Writes one summary row per
(amplitude, algorithm) and, optionally, the full per-iteration traces.

Example:
    python scripts/dynamic_experiment.py --out results/dynamic
"""

from __future__ import annotations

import argparse
import csv
import pathlib
import time

from fairalloc.experiments import ReferenceCache, Scenario, run_dynamic
from fairalloc.model import generate_random
from fairalloc.trace import format_value, write_trace


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="instance seed")
    parser.add_argument("--nodes", type=int, default=100)
    parser.add_argument("--links", type=int, default=300)
    parser.add_argument("--routes", type=int, default=200)
    parser.add_argument("--cap-min", type=float, default=5.0)
    parser.add_argument("--cap-max", type=float, default=50.0)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument(
        "--amplitudes",
        default="0.05,0.25,0.5,0.75,1.0",
        help="comma-separated weight amplitudes in [0, 1]",
    )
    parser.add_argument("--events", type=int, default=20)
    parser.add_argument("--iters-per-event", type=int, default=10)
    parser.add_argument("--scenario-seed", type=int, default=1)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--traces", action="store_true", help="also write per-iteration trace CSVs")
    args = parser.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    instance = generate_random(
        seed=args.seed,
        n_nodes=args.nodes,
        n_links=args.links,
        n_routes=args.routes,
        capacity_range=(args.cap_min, args.cap_max),
        alpha=args.alpha,
    )
    amplitudes = [float(tok) for tok in args.amplitudes.split(",") if tok.strip()]

    rows = []
    for amplitude in amplitudes:
        scenario = Scenario(
            amplitude=amplitude,
            n_events=args.events,
            iters_per_event=args.iters_per_event,
            seed=args.scenario_seed,
        )
        cache = ReferenceCache()  # both algorithms score against the same references
        for algorithm in ("fd-admm", "lagr"):
            t0 = time.perf_counter()
            result = run_dynamic(instance, None, algorithm, scenario, reference_cache=cache)
            seconds = time.perf_counter() - t0
            rows.append((amplitude, algorithm, result.mean_gap, result.mean_violation, seconds))
            print(
                f"a={amplitude:<5} {algorithm:<8} mean gap {format_value(result.mean_gap)} "
                f"mean violated links {format_value(result.mean_violation)}%  ({seconds:.1f}s)"
            )
            if args.traces:
                write_trace(result.trace, out / f"trace_a{amplitude}_{algorithm}.csv")

    with open(out / "summary.csv", "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["amplitude", "algorithm", "mean_gap", "mean_violated_pct", "seconds"])
        for amplitude, algorithm, gap, viol, seconds in rows:
            writer.writerow(
                [amplitude, algorithm, format_value(gap), format_value(viol), f"{seconds:.2f}"]
            )
    print(f"wrote {out / 'summary.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

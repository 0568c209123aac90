"""Closed-loop harness: one process, one thread, one operation at a time.

A run generates its pool, then repeats set-up and operation, cycling
through the pool, until ``seconds`` have passed and every member has run
at least once.  Correctness gates and reference solves run between
operations, untimed.

The traced run spends the first half of its time untraced and the second
half with the wrappers of :mod:`bench.layers` installed; the difference in
operation time between the halves is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from bench import layers
from bench.tracer import Tracer, install, uninstall
from bench.workloads import OPERATION_ERRORS, WORKLOADS, Shape

SHAPES = {
    "full": {
        "cold-solve": Shape(nodes=40, links=100, routes=300, alpha=0.5, domains=8, pool=20),
        "retrack": Shape(
            nodes=60, links=150, routes=100, alpha=1.0, domains=8, pool=12, budget=3, capacity_range=(5.0, 50.0)
        ),
        "cadmm-dykstra": Shape(nodes=40, links=100, routes=300, alpha=0.5, domains=16, pool=12, budget=4),
        "domain-sim": Shape(nodes=40, links=100, routes=300, alpha=0.5, domains=16, pool=8, budget=10),
    },
    # for the benchmark's own tests
    "tiny": {
        "cold-solve": Shape(nodes=8, links=12, routes=16, alpha=0.5, domains=2, pool=2),
        "retrack": Shape(
            nodes=8, links=12, routes=10, alpha=1.0, domains=2, pool=1, budget=2, capacity_range=(5.0, 50.0)
        ),
        "cadmm-dykstra": Shape(nodes=8, links=12, routes=16, alpha=0.5, domains=3, pool=1, budget=2),
        "domain-sim": Shape(nodes=8, links=12, routes=16, alpha=0.5, domains=3, pool=2, budget=3),
    },
}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "time_to_tol_s": "s",
    "iterations": "count",
    "rounds_per_s": "1/s",
    "gap": "ratio",
    "events_per_s": "1/s",
    "fd_mean_gap": "ratio",
    "lagr_mean_gap": "ratio",
    "lagr_violated_pct": "%",
    "wire_floats_per_round": "count",
}
QUALITY = ("gap", "fd_mean_gap", "lagr_mean_gap", "lagr_violated_pct", "wire_floats_per_round")


def typical(samples: list[float]) -> float:
    """Mean of a run's repeated timings of the same work.

    The host's speed swings by up to 1.7x for seconds at a time.  A run's
    few repeats of one pool member often fall all in fast or all in slow
    seconds, so their median jumps between the two levels from run to run;
    the mean moves with the share of slow seconds, which varies less.
    """
    return sum(samples) / len(samples)


class Run:
    def __init__(self, workload, members, tracer: Tracer | None = None):
        self.workload = workload
        # quality figures feed the end-to-end metrics only
        self.needs_quality = tracer is None
        self.members = members
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.setup_times: list[float] = []
        self.op_times = {k: [] for k in range(len(members))}
        self.traced_times = {k: [] for k in range(len(members))}
        self.layer_samples = {k: [] for k in range(len(members))}
        self.rounds = {}
        self.events = {}
        self.spans_out: list = []  # first traced operation of member 0

    def operation(self, k: int, traced: bool) -> None:
        wl, member = self.workload, self.members[k]
        if traced:
            self.tracer.reset()
            self.tracer.enabled = True
        try:
            t0 = time.perf_counter()
            ctx = wl.setup(member)
            setup_time = time.perf_counter() - t0
            self.attempted += wl.attempts_per_op
            try:
                wl.prepare(ctx)
                t1 = time.perf_counter()
                outcome = wl.op(ctx)
                t2 = time.perf_counter()
            except OPERATION_ERRORS as exc:
                self.failed += wl.attempts_per_op
                print(f"# {wl.name}[{k}]: {type(exc).__name__}: {exc}", file=sys.stderr)
                return
        finally:
            if traced:
                self.tracer.enabled = False
        self.setup_times.append(setup_time)
        (self.traced_times if traced else self.op_times)[k].append(t2 - t1)
        if traced:
            self.layer_samples[k].append(layers.layer_metrics(self.tracer, ctx["instance"]))
            if k == 0 and len(self.layer_samples[k]) == 1:
                self.spans_out = self.tracer.spans()
        try:
            failures = wl.check(ctx, outcome)
            if self.needs_quality and member.quality is None and not failures:
                member.quality = wl.quality(ctx, outcome)
        except OPERATION_ERRORS as exc:
            failures = [f"{type(exc).__name__}: {exc}"]
        if failures:
            self.failed += wl.attempts_per_op
            for failure in failures[:5]:
                print(f"# {wl.name}[{k}] gate: {failure}", file=sys.stderr)
        self.rounds[k] = outcome.rounds
        self.events[k] = outcome.events

    def loop(self, until: float, traced: bool) -> None:
        """Cycle through the pool until ``until``, at least once over it."""
        i = 0
        while i < len(self.members) or time.perf_counter() < until:
            self.operation(i % len(self.members), traced)
            i += 1


def end_to_end(run: Run) -> dict[str, float]:
    times = {k: typical(v) for k, v in run.op_times.items() if v}
    if not times or any(m.quality is None for m in run.members):
        return {}
    total_time = sum(times.values())
    metrics = {
        "setup_s": typical(run.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "time_to_tol_s": total_time / len(times),
        "iterations": float(np.mean([run.rounds[k] for k in times])),
        "rounds_per_s": sum(run.rounds[k] for k in times) / total_time,
        "events_per_s": sum(run.events[k] for k in times) / total_time,
    }
    for name in QUALITY:
        metrics[name] = float(np.mean([m.quality[name] for m in run.members]))
    return metrics


def per_layer(run: Run) -> dict[str, float]:
    members = [k for k in run.layer_samples if run.layer_samples[k] and run.op_times[k]]
    if not members:
        return {}
    metrics = {}
    for name, (unit, _) in layers.METRICS.items():
        if unit == "count":
            # counts repeat exactly from one operation to the next
            value = np.mean([run.layer_samples[k][0][name] for k in members])
        else:
            value = np.mean([typical([s[name] for s in run.layer_samples[k]]) for k in members])
        metrics[name] = float(value)
    traced = sum(typical(run.traced_times[k]) for k in members)
    untraced = sum(typical(run.op_times[k]) for k in members)
    metrics["tracing.overhead_s"] = (traced - untraced) / len(members)
    metrics["tracing.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    return metrics


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, root: Path, scale: str = "full") -> dict:
    """Run one workload and return the result object the benchmark prints."""
    workload = WORKLOADS[name](SHAPES[scale][name])
    workdir = root / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        members = workload.generate(seed, workdir)
        start = time.perf_counter()
        tracer = Tracer() if trace else None
        run = Run(workload, members, tracer)
        if not trace:
            run.loop(start + seconds, traced=False)
            metrics, units = end_to_end(run), END_TO_END
        else:
            run.loop(start + seconds / 2.0, traced=False)
            undo = install(layers.targets(tracer))
            try:
                run.loop(start + seconds, traced=True)
            finally:
                uninstall(undo)
            metrics = per_layer(run)
            units = {name: unit for name, (unit, _) in layers.METRICS.items()} | layers.OVERHEAD
            write_spans(root / ".bench_work" / f"spans-{name}-seed{seed}.jsonl", run.spans_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for k, times in run.op_times.items():
        print(f"# member {k} op seconds: " + " ".join(f"{t:.5f}" for t in times))
    for k, times in run.traced_times.items():
        if times:
            print(f"# member {k} traced op seconds: " + " ".join(f"{t:.5f}" for t in times))
    print("# setup seconds: " + " ".join(f"{t:.5f}" for t in run.setup_times))
    for k, member in enumerate(run.members):
        print(f"# member {k} rounds {run.rounds.get(k)} quality {json.dumps(member.quality)}")
    correct = run.failed == 0 and len(metrics) == len(units)
    return {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items() if n in metrics},
    }


def write_spans(path: Path, spans) -> None:
    """One JSON array ``[id, name, start, end, parent]`` per line."""
    with open(path, "w") as fh:
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(json.dumps([i, name, start, end, parent]) + "\n")

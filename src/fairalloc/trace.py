"""Iteration traces: per-round rows, CSV serialization, quality metrics.

Trace files are deterministic byte-for-byte given identical solver inputs:
floats are rendered at 12 significant digits, rows end with ``\\n``, and the
wall-clock column is deliberately kept in memory only (it is the one field
that cannot be reproduced across runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Instance, link_loads

CSV_COLUMNS = (
    "iteration",
    "event",
    "algorithm",
    "objective_value",
    "gap",
    "primal_residual",
    "dual_residual",
    "violated_pct",
    "message_floats",
)


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    event: int
    algorithm: str
    objective_value: float
    gap: float
    primal_residual: float
    dual_residual: float
    violated_pct: float
    message_floats: int
    wall_time: float = 0.0  # in-memory only; excluded from CSV


def format_value(x: float) -> str:
    return "%.12g" % x


def write_trace(rows, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    (
                        str(row.iteration),
                        str(row.event),
                        row.algorithm,
                        format_value(row.objective_value),
                        format_value(row.gap),
                        format_value(row.primal_residual),
                        format_value(row.dual_residual),
                        format_value(row.violated_pct),
                        str(row.message_floats),
                    )
                )
                + "\n"
            )


def read_trace(path) -> list[TraceRow]:
    rows: list[TraceRow] = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != ",".join(CSV_COLUMNS):
            raise ValueError(f"{path}: unexpected trace header {header!r}")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            rows.append(
                TraceRow(
                    iteration=int(parts[0]),
                    event=int(parts[1]),
                    algorithm=parts[2],
                    objective_value=float(parts[3]),
                    gap=float(parts[4]),
                    primal_residual=float(parts[5]),
                    dual_residual=float(parts[6]),
                    violated_pct=float(parts[7]),
                    message_floats=int(parts[8]),
                )
            )
    return rows


def relative_gap(value: float, reference: float) -> float:
    """``|value - reference| / max(1, |reference|)``; nan if reference is nan."""
    if math.isnan(reference) or math.isnan(value):
        return float("nan")
    return abs(value - reference) / max(1.0, abs(reference))


def violated_percentage(instance: Instance, allocation: np.ndarray, rel_eps: float = 1e-9) -> float:
    """Percent of links whose load exceeds capacity by more than ``rel_eps`` relative."""
    loads = link_loads(instance, np.asarray(allocation, dtype=np.float64))
    return overloaded_percentage(loads, instance.capacities, rel_eps)


def overloaded_percentage(loads: np.ndarray, capacities: np.ndarray, rel_eps: float = 1e-9) -> float:
    """:func:`violated_percentage` from link loads already computed."""
    if loads.size == 0:
        return 0.0
    violated = loads > capacities * (1.0 + rel_eps)
    return 100.0 * int(np.count_nonzero(violated)) / loads.size

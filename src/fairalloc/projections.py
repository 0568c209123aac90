"""Euclidean projections onto per-link capacity sets and the full polyhedron.

The workhorse is projection onto one link's capped simplex
``{x >= 0, sum(x) <= C}`` via the sort-and-threshold rule.  A batched variant
applies it to many links at once with arithmetic bit-identical to the 1-D
routine, which is what lets a vectorized solver and a per-node simulation of
the same algorithm agree to the last bit.  Projection onto the intersection
of all link sets uses Dykstra's alternating method with correction terms.

Every projected point is exactly feasible in floating point: after the
threshold step a repair pass removes any last-ulp excess, measured with the
same canonical summation used by feasibility checks elsewhere.
"""

from __future__ import annotations

import numpy as np

from .model import Instance
from .numerics import canonical_sum, segment_sums


class ProjectionError(ValueError):
    """Raised for malformed projection inputs."""


class DykstraError(RuntimeError):
    """Cycle budget exhausted; carries the last iterate and its residual."""

    def __init__(self, message: str, last_point: np.ndarray, residual: float):
        super().__init__(message)
        self.last_point = last_point
        self.residual = residual


def _enforce_cap(x: np.ndarray, cap: float) -> None:
    """Remove any rounding excess in place so ``canonical_sum(x) <= cap`` exactly."""
    for _ in range(64):
        total = canonical_sum(x)
        if total <= cap:
            return
        i = int(np.argmax(x))
        x[i] = max(x[i] - (total - cap), 0.0)
    raise ProjectionError("could not repair rounding excess")  # pragma: no cover


def project_capped_simplex(values: np.ndarray, cap: float) -> np.ndarray:
    """Project onto ``{x >= 0, sum(x) <= cap}`` by sort-and-threshold.

    When the clipped point already fits under the cap it is returned as is;
    otherwise the unique threshold ``theta > 0`` with
    ``sum(max(values - theta, 0)) == cap`` is found from the descending prefix
    sums.  The output satisfies ``canonical_sum(result) <= cap`` exactly.
    """
    y = np.asarray(values, dtype=np.float64)
    if y.ndim != 1 or y.size == 0:
        raise ProjectionError("values must be a nonempty 1-D array")
    if not (cap > 0 and np.isfinite(cap)):
        raise ProjectionError(f"capacity must be finite and > 0, got {cap}")
    x = np.maximum(y, 0.0)
    if canonical_sum(x) <= cap:
        return x
    s = np.sort(y)[::-1]
    csum = np.cumsum(s)
    ranks = np.arange(1, y.size + 1, dtype=np.float64)
    positive = s - (csum - cap) / ranks > 0
    k = y.size - 1 - int(np.argmax(positive[::-1]))
    theta = (csum[k] - cap) / (k + 1.0)
    x = np.maximum(y - theta, 0.0)
    _enforce_cap(x, cap)
    return x


class BatchedLinkProjector:
    """Per-link capped-simplex projection over a flat copy layout.

    One call projects every link at once.  The clipped copies are summed per
    link with ``segment_sums`` over the flat layout; only the links over
    their cap go on to sort-and-threshold, as the rows of one matrix padded
    with ``-inf``.  Pads sort to the end of each row and ``cumsum`` is a
    sequential scan, so every prefix of real entries is the 1-D one, and
    every sum that decides feasibility is taken over the unpadded copies.
    ``apply`` therefore matches ``project_capped_simplex`` link by link, bit
    for bit, including the exact-feasibility repair.
    """

    def __init__(self, link_starts: np.ndarray, capacities: np.ndarray):
        starts = np.asarray(link_starts, dtype=np.intp)
        sizes = np.diff(starts)
        links = np.nonzero(sizes > 0)[0]
        self._starts = starts[links]
        self._sizes = sizes[links]
        self._caps = np.asarray(capacities, dtype=np.float64)[links]

    def apply(self, flat_values: np.ndarray, out: np.ndarray) -> None:
        x = np.maximum(flat_values, 0.0)  # not in ``out``: it may alias ``flat_values``
        if self._starts.size:
            over = segment_sums(x, self._starts) > self._caps
            if over.any():
                positions, values = self._project_over(flat_values, over)
                x[positions] = values
        out[...] = x

    def _project_over(self, flat_values: np.ndarray, over: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat positions and projected values of the links flagged ``over``."""
        starts = self._starts[over]
        sizes = self._sizes[over]
        caps = self._caps[over]
        m, q = starts.size, int(sizes.max())
        cols = np.arange(q)
        real = cols[None, :] < sizes[:, None]
        positions = (starts[:, None] + cols[None, :])[real]
        y = flat_values[positions]
        padded = np.full((m, q), -np.inf)
        padded[real] = y
        s = np.sort(padded, axis=1)[:, ::-1]
        csum = np.cumsum(s, axis=1)
        ranks = np.arange(1, q + 1, dtype=np.float64)[None, :]
        with np.errstate(invalid="ignore"):  # pads give -inf - -inf
            positive = (s - (csum - caps[:, None]) / ranks > 0) & real
        last = q - 1 - np.argmax(positive[:, ::-1], axis=1)
        # a row with no positive entry takes its last real index, as in 1-D
        k = np.where(positive.any(axis=1), last, sizes - 1)
        theta = (csum[np.arange(m), k] - caps) / (k + 1.0)
        x = np.maximum(y - np.repeat(theta, sizes), 0.0)
        _enforce_caps(x, padded, real, sizes, caps)
        return positions, x


def _enforce_caps(
    x: np.ndarray, padded: np.ndarray, real: np.ndarray, sizes: np.ndarray, caps: np.ndarray
) -> None:
    """``_enforce_cap`` on every row of the flat concatenation ``x`` at once.

    Rows are ``sizes`` long; ``padded`` is scratch of shape ``real.shape``.
    Each still-over row takes the same steps as in the 1-D loop: its
    canonical sum, then the excess taken off its first maximum.
    """
    row_starts = np.zeros(sizes.size, dtype=np.intp)
    np.cumsum(sizes[:-1], out=row_starts[1:])
    for _ in range(64):
        totals = segment_sums(x, row_starts)
        still = ~(totals <= caps)
        if not still.any():
            return
        padded[real] = x
        at = row_starts[still] + np.argmax(padded[still], axis=1)
        x[at] = np.maximum(x[at] - (totals[still] - caps[still]), 0.0)
    raise ProjectionError("could not repair rounding excess")  # pragma: no cover


def project_polyhedron(
    instance: Instance,
    point: np.ndarray,
    tolerance: float = 1e-9,
    max_cycles: int = 100_000,
) -> np.ndarray:
    """Dykstra's alternating projection onto ``{x >= 0, loads <= capacities}``.

    Cycles through every link's capped simplex and the nonnegative orthant,
    each visit offset by that set's running correction term.  Stops once the
    iterate moves less than ``tolerance/10`` (sup norm) over a full cycle —
    a practical Cauchy certificate that the limit is within ``tolerance``.
    Raises :class:`DykstraError` with the last iterate once ``max_cycles``
    is exhausted.
    """
    inc = instance.incidence
    y = np.asarray(point, dtype=np.float64)
    if y.shape != (instance.n_routes,):
        raise ProjectionError(f"point has shape {y.shape}, expected ({instance.n_routes},)")
    x = y.copy()
    corrections = [np.zeros(inc.members(j).size) for j in range(instance.n_links)]
    orthant_correction = np.zeros_like(x)
    caps = instance.capacities
    stop = tolerance / 10.0
    residual = np.inf
    for _ in range(max_cycles):
        previous = x.copy()
        for j in range(instance.n_links):
            members = inc.members(j)
            if members.size == 0:
                continue
            w = x[members] + corrections[j]
            z = project_capped_simplex(w, caps[j])
            corrections[j] = w - z
            x[members] = z
        w = x + orthant_correction
        z = np.maximum(w, 0.0)
        orthant_correction = w - z
        x = z
        residual = float(np.max(np.abs(x - previous))) if x.size else 0.0
        if residual <= stop:
            return x
    raise DykstraError(
        f"no convergence within {max_cycles} cycles (last residual {residual:.3e})",
        last_point=x,
        residual=residual,
    )

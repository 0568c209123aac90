"""Euclidean projections onto per-link capacity sets and the full polyhedron.

One kernel, :class:`BatchedLinkProjector`, projects every link of a flat
copy layout onto its capped simplex ``{x >= 0, sum(x) <= C}`` at once by the
sort-and-threshold rule, treating each link on its own, so its result for a
link does not depend on which other links share the call.  That is what lets
a vectorized solver and a per-node simulation of the same algorithm agree to
the last bit.  :func:`project_capped_simplex` is its one-link call.  The
tests check it against an independent 1-D sort-and-threshold routine
(``tests/oracles.py``) that shares no code with the package.

Projection onto the intersection of all link sets uses Dykstra's method with
one correction term per link.  Each cycle visits the links by colour class of
the link-conflict graph (``Incidence.colour_classes``, computed once per
instance): the links of a class share no route, so one batched call projects
the whole class.  No separate set ``{x >= 0}`` is visited: every link set
already holds ``x >= 0`` and every route lies on a link, so the link sets
alone have the same intersection, and after each sweep every coordinate is a
projector output.  Dykstra's method converges to the projection for any
fixed cyclic order of the sets (Boyle & Dykstra, "A method for finding
projections onto the intersection of convex sets in Hilbert spaces", 1986).
It stops once a cycle moves neither the iterate nor any correction term by
more than a tenth of the tolerance; the iterate alone can stall far from the
projection while the corrections still move (Birgin & Raydan, "Robust
stopping criteria for Dykstra's algorithm", SIAM J. Sci. Comput. 2005).

Every link the kernel projects fits its cap exactly in floating point: after
the threshold step a repair pass removes any last-ulp excess, measured with
the same canonical summation used by feasibility checks elsewhere.
"""

from __future__ import annotations

import numpy as np

from .model import Instance
from .numerics import segment_sums


class ProjectionError(ValueError):
    """Raised for malformed projection inputs."""


class DykstraError(RuntimeError):
    """Cycle budget exhausted; carries the last iterate and its residual."""

    def __init__(self, message: str, last_point: np.ndarray, residual: float):
        super().__init__(message)
        self.last_point = last_point
        self.residual = residual


def project_capped_simplex(values: np.ndarray, cap: float) -> np.ndarray:
    """Project onto ``{x >= 0, sum(x) <= cap}``: one link of :class:`BatchedLinkProjector`.

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
    x = np.empty_like(y)
    BatchedLinkProjector(np.array([0, y.size]), np.array([cap])).apply(y, out=x)
    return x


class BatchedLinkProjector:
    """Per-link capped-simplex projection over a flat copy layout.

    One call projects every link at once.  The clipped copies are summed per
    link with ``segment_sums`` over the flat layout; only the links over
    their cap go on to sort-and-threshold, as the rows of one matrix padded
    with ``-inf``.  Pads sort to the end of each row and ``cumsum`` is a
    sequential scan, so every prefix of real entries is the one a single
    link's sort would give, and every sum that decides feasibility is taken
    over the unpadded copies.  A link's result is therefore the same bits
    whichever links share the call, including the exact-feasibility repair.
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
            # a NaN sum fails ``<=``: its link is projected and the repair raises
            over = ~(segment_sums(x, self._starts) <= self._caps)
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
        # a row with no positive entry takes its last real index
        k = np.where(positive.any(axis=1), last, sizes - 1)
        theta = (csum[np.arange(m), k] - caps) / (k + 1.0)
        x = np.maximum(y - np.repeat(theta, sizes), 0.0)
        _enforce_caps(x, padded, real, sizes, caps)
        return positions, x


def _enforce_caps(
    x: np.ndarray, padded: np.ndarray, real: np.ndarray, sizes: np.ndarray, caps: np.ndarray
) -> None:
    """Remove any rounding excess in place from every row of the flat
    concatenation ``x``, so that each row's canonical sum is at most its cap.

    Rows are ``sizes`` long; ``padded`` is scratch of shape ``real.shape``.
    Each pass takes every row's canonical sum and, in each row still over
    its cap, takes the excess off the row's first maximum (clipped at 0).
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
    raise ProjectionError("could not repair rounding excess")


def _sup(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def project_polyhedron(
    instance: Instance,
    point: np.ndarray,
    tolerance: float = 1e-9,
    max_cycles: int = 100_000,
) -> np.ndarray:
    """Dykstra's alternating projection onto ``{x >= 0, loads <= capacities}``.

    Each cycle visits the instance's colour classes in order, one
    :class:`BatchedLinkProjector` call per class, each link offset by its own
    correction term; the link sets hold ``x >= 0``, so no separate set
    ``{x >= 0}`` is needed.  The result is bit-identical to visiting the
    links one at a time in class order with :func:`project_capped_simplex`,
    and any fixed cyclic order converges to the projection (Boyle & Dykstra,
    1986).

    Stops after the first cycle in which the iterate and every correction
    term moved at most ``tolerance/10`` (sup norm): the iterate alone can
    stand still for a cycle far from the projection while the corrections
    still move (Birgin & Raydan, 2005).  Raises :class:`ProjectionError` for
    a point that is not finite or an instance with a route on no link, and
    :class:`DykstraError` with the last iterate and the last cycle's largest
    move once ``max_cycles`` is exhausted.
    """
    inc = instance.incidence
    y = np.asarray(point, dtype=np.float64)
    if y.shape != (instance.n_routes,):
        raise ProjectionError(f"point has shape {y.shape}, expected ({instance.n_routes},)")
    if not np.all(np.isfinite(y)):
        raise ProjectionError("point must be finite")
    if not np.bincount(inc.copy_route, minlength=instance.n_routes).all():
        raise ProjectionError("every route must traverse at least one link")
    # each class's copies are one stretch of the flat correction terms; within
    # a class the routes are distinct, so gathering and scattering is collision-free
    classes = []
    offset = 0
    for links in inc.colour_classes:
        copies, starts = inc.link_copies(links)
        stretch = slice(offset, offset + copies.size)
        projector = BatchedLinkProjector(starts, instance.capacities[links])
        classes.append((projector, stretch, inc.copy_route[copies]))
        offset += copies.size
    x = y.copy()
    corrections = np.zeros(offset)
    stop = tolerance / 10.0
    residual = np.inf
    for _ in range(max_cycles):
        previous = x.copy()
        previous_corrections = corrections.copy()
        for projector, stretch, routes in classes:
            w = x[routes] + corrections[stretch]
            z = np.empty_like(w)
            projector.apply(w, out=z)
            corrections[stretch] = w - z
            x[routes] = z
        residual = max(_sup(x - previous), _sup(corrections - previous_corrections))
        if residual <= stop:
            return x
    raise DykstraError(
        f"no convergence within {max_cycles} cycles (last residual {residual:.3e})",
        last_point=x,
        residual=residual,
    )

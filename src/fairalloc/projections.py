"""Euclidean projections onto per-link capacity sets and the full polyhedron.

One kernel, :class:`BatchedLinkProjector`, projects every link of a flat
copy layout onto its capped simplex ``{x >= 0, sum(x) <= C}`` at once by the
sort-and-threshold rule, treating each link on its own, so its result for a
link does not depend on which other links share the call.  That is what lets
a vectorized solver and a per-node simulation of the same algorithm agree to
the last bit.  :func:`project_capped_simplex` is its one-link call.  The
tests check it against an independent 1-D sort-and-threshold routine
(``tests/oracles.py``) that shares no code with the package.

Every link the kernel projects fits its cap exactly in floating point: after
the threshold step a repair pass removes any last-ulp excess, measured with
the same canonical summation used by feasibility checks elsewhere.

Projection onto the intersection of all link sets, the polyhedron
``{Ax <= C, x >= 0}``, is a quadratic program with identity Hessian, solved
by one primal-dual path-following loop (Boyd & Vandenberghe, *Convex
Optimization*, 2004, section 11.7; Wright, *Primal-Dual Interior-Point
Methods*, 1997).  Its Newton system is reduced to the links, and the link
matrix is summed from the table of link pairs each route traverses
(``Incidence.link_pairs``, computed once per instance).
"""

from __future__ import annotations

import numpy as np

from .model import Instance, route_minima
from .numerics import segment_sums

# step budget and stopping tolerance (relative) of project_polyhedron
POLYHEDRON_STEPS = 200
POLYHEDRON_TOL = 1e-12


class ProjectionError(ValueError):
    """Raised for malformed projection inputs."""


class DykstraError(RuntimeError):
    """:func:`project_polyhedron` ran out of steps; carries the last iterate
    and its residual.  The name is kept because the benchmark and the CLI
    catch it under this name."""

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


def project_polyhedron(instance: Instance, point: np.ndarray) -> np.ndarray:
    """Euclidean projection of ``point`` onto ``{x >= 0, loads <= capacities}``.

    Path-following on ``min ||x - y||^2 / 2`` subject to ``Ax + s = C`` and
    ``x, s >= 0``, with multipliers ``mu`` for the links and ``nu`` for
    ``x >= 0``.  It starts at half of each route's equal-split share with
    every multiplier at 1, aims each Newton step at a tenth of the mean
    complementarity and stops it 1% short of the boundary.  It stops once
    the primal and dual residuals and the root of the mean complementarity
    are at most ``POLYHEDRON_TOL * max(1, max |y|, max C)``, and returns ``x``
    with every rate below its multiplier set to 0: a bound active at the
    projection comes back as an exact 0.  A load may exceed its cap by the
    tolerance; the solvers serve only extracts, which fit exactly.

    Raises :class:`ProjectionError` for a point that is not finite or an
    instance with a route on no link, and :class:`DykstraError` with the
    last iterate and its residual after ``POLYHEDRON_STEPS`` steps.
    """
    inc = instance.incidence
    y = np.asarray(point, dtype=np.float64)
    if y.shape != (instance.n_routes,):
        raise ProjectionError(f"point has shape {y.shape}, expected ({instance.n_routes},)")
    if not np.all(np.isfinite(y)):
        raise ProjectionError("point must be finite")
    if not np.bincount(inc.copy_route, minlength=instance.n_routes).all():
        raise ProjectionError("every route must traverse at least one link")
    n_links, n_routes = instance.n_links, instance.n_routes
    if not n_routes:
        return y.copy()
    caps = instance.capacities
    pairs, pair_routes = inc.link_pairs

    def loads(v: np.ndarray) -> np.ndarray:  # A v
        return np.bincount(inc.copy_link, weights=v[inc.copy_route], minlength=n_links)

    def prices(u: np.ndarray) -> np.ndarray:  # A^T u
        return np.bincount(inc.copy_route, weights=u[inc.copy_link], minlength=n_routes)

    # x, s, mu and nu are views of one positive vector, so one step moves all four
    split = route_minima(instance, caps[inc.copy_link] / np.bincount(inc.copy_link)[inc.copy_link])
    point_and_duals = np.concatenate((0.5 * split, caps, np.ones(n_links + n_routes)))
    x, s, mu, nu = np.split(point_and_duals, np.cumsum([n_routes, n_links, n_links]))
    s -= loads(x)
    tol = POLYHEDRON_TOL * max(1.0, np.max(np.abs(y)), np.max(caps))
    for steps in range(POLYHEDRON_STEPS + 1):
        r_dual = x - y + prices(mu) - nu
        r_primal = loads(x) + s - caps
        gap = (mu @ s + nu @ x) / (n_links + n_routes)
        residual = max(np.max(np.abs(r_dual)), np.max(np.abs(r_primal)), np.sqrt(gap))
        if residual <= tol:
            x[nu > x] = 0.0
            return x
        if steps == POLYHEDRON_STEPS:
            break
        target = 0.1 * gap
        g = 1.0 + nu / x
        r_x = target / x - nu - r_dual
        r_s = s - target / mu - r_primal
        # (A G^-1 A^T + diag(s/mu)) d_mu = A G^-1 r_x - r_s with G = diag(g); the
        # ridge keeps it regular where tight links carry the same routes
        k = np.bincount(pairs, weights=1.0 / g[pair_routes], minlength=n_links * n_links)
        k[:: n_links + 1] += s / mu + 1e-12
        d_mu = np.linalg.solve(k.reshape(n_links, n_links), loads(r_x / g) - r_s)
        d_x = (r_x - prices(d_mu)) / g
        direction = np.concatenate((d_x, target / mu - s - s / mu * d_mu, d_mu, target / x - nu - nu / x * d_x))
        shrinking = direction < 0
        to_boundary = np.min(-point_and_duals[shrinking] / direction[shrinking], initial=np.inf)
        point_and_duals += min(1.0, 0.99 * to_boundary) * direction
    raise DykstraError(
        f"no convergence within {POLYHEDRON_STEPS} steps (last residual {residual:.3e})",
        last_point=x,
        residual=residual,
    )

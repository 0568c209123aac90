"""Euclidean projections onto per-link capacity sets and the full polyhedron.

One kernel, :class:`BatchedLinkProjector`, projects every link of a flat
copy layout onto its capped simplex ``{x >= 0, sum(x) <= C}`` in one call by
the sort-and-threshold rule.  It lays the links out once, at the first call
that finds a link over its cap, as the rows of one padded table; a call
sorts only the rows of the links over their cap, negated, so that the
``+inf`` pads sort last and every prefix sum of a link's copies is exactly
the negation of the one its own sort gives.
Each step decides a link from its own copies alone, so a link's result is
the same bits whichever links share the call.  That is what lets a
vectorized solver and a per-node simulation of the same algorithm agree to
the last bit.  :func:`project_capped_simplex` is its one-link call.  The
tests check it byte for byte against an independent 1-D sort-and-threshold
routine (``tests/oracles.py``) that shares no code with the package.

Every link the kernel projects fits its cap exactly in floating point: after
the threshold step a repair pass takes any last-ulp excess off the link's
first maximum, measured with the same canonical summation used by
feasibility checks elsewhere.

Projection onto the intersection of all link sets, the polyhedron
``{Ax <= C, x >= 0}``, is a quadratic program with identity Hessian.  It is
solved by :func:`path_following`, one primal-dual path-following loop (Boyd
& Vandenberghe, *Convex Optimization*, 2004, section 11.7; Wright,
*Primal-Dual Interior-Point Methods*, 1997) for any separable convex
objective over the polyhedron, given its gradient and the diagonal of its
Hessian.  The same loop solves the alpha-fair optimum
(``solvers.fair_optimum``).  Its Newton system is reduced to the links, and
the link matrix is summed from the table of link pairs each route traverses
(``Incidence.link_pairs``, computed once per instance).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .model import Instance, route_minima
from .numerics import segment_sums

# step budget and stopping tolerance (relative) of path_following
POLYHEDRON_STEPS = 200
POLYHEDRON_TOL = 1e-12


class ProjectionError(ValueError):
    """Raised for malformed projection inputs."""


class DykstraError(RuntimeError):
    """:func:`path_following` ran out of steps; carries the last iterate
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

    The padded rows are laid out once, at the first call that finds a link
    over its cap, so that building a projector stays cheap: a ``(links, q)``
    table of flat copy positions, ``q`` the largest link, whose pads point
    at one sentinel slot past the copies; each copy's row; and each row's
    count of pads.  ``link_starts`` begins at 0 and ends at the number of
    copies.
    The projector keeps two buffers of the copies between calls, so it
    serves one call at a time.  A call clips the copies, sums them per link
    with ``segment_sums`` and projects the links over their cap, each with
    the arithmetic the oracle applies to that link alone:

    - Sort: the negated copies are gathered into the rows of the links over
      their cap, with ``+inf`` in the sentinel slot, and sorted ascending.
      That is the oracle's descending order, negated, with the pads last.
      Negation is exact and rounding is symmetric about 0, so the
      sequential ``cumsum`` of a row is the negated prefix sums ``-csum``;
      ``-csum + cap`` is exactly ``-(csum - cap)``, and dividing by the
      rank keeps the sign.
    - Test: two floats differ by a nonzero float of the sign of their order,
      so the oracle's ``s - (csum - cap) / rank > 0`` is
      ``(-csum + cap) / rank > -s``.  A pad compares ``inf > inf`` and a
      ``-inf`` copy ``inf > inf`` or ``nan > inf``: False, as in the oracle.
      The last passing cell ``k``, or the link's last copy when none passes,
      gives ``tau = (-csum[k] + cap) / (k + 1) = -theta``.
    - Threshold: ``max(y + tau, 0)`` is the oracle's ``max(y - theta, 0)``.
      The sums can differ only in the sign of a zero, and ``np.maximum``
      returns its second operand, ``+0.0``, when both are zeros.  A link
      under its cap takes ``tau = 0``, which leaves ``max(y, 0)``.
    - Repair: while a link's canonical sum exceeds its cap, the excess comes
      off its first maximum, the ``argmax`` of its row of clipped copies
      with ``-inf`` in the sentinel slot.  ``segment_sums`` reduces each
      link over its own copies, as the oracle reduces its one segment.
    """

    def __init__(self, link_starts: np.ndarray, capacities: np.ndarray):
        starts = np.asarray(link_starts, dtype=np.intp)
        sizes = np.diff(starts)
        links = np.nonzero(sizes > 0)[0]
        self._starts = starts[links]
        self._sizes = sizes[links]
        self._caps = np.asarray(capacities, dtype=np.float64)[links]
        # the copies and a sentinel slot: clipped over ``-inf``
        self._clipped = np.full((int(starts[-1]) if starts.size else 0) + 1, -np.inf)
        self._cells = None  # the padded table, from ``_lay_out``

    def _lay_out(self) -> None:
        """Build the padded table of copy positions and its row indexes."""
        sizes, n = self._sizes, self._clipped.size - 1
        q = int(sizes.max())
        cols = np.arange(q)
        self._cells = np.where(cols < sizes[:, None], self._starts[:, None] + cols, n)
        self._pads = q - sizes
        self._row_ends = np.arange(sizes.size) * q + (q - 1)  # flat index of each row's last cell
        self._ranks = np.arange(1.0, q + 1.0)
        self._cap_column = self._caps[:, None]
        self._copy_row = np.repeat(np.arange(sizes.size), sizes)
        # the copies negated, under ``+inf`` in the sentinel slot
        self._negated = np.full(n + 1, np.inf)

    def apply(self, flat_values: np.ndarray, out: np.ndarray) -> None:
        x = self._clipped[:-1]  # not ``out``: it may alias ``flat_values``
        np.maximum(flat_values, 0.0, out=x)
        if self._starts.size:
            # a NaN sum fails ``<=``: its link is projected and the repair raises
            over = ~(segment_sums(x, self._starts) <= self._caps)
            if over.any():
                if self._cells is None:
                    self._lay_out()
                self._threshold(flat_values, over, x)
                self._repair(x)
        out[...] = x

    def _threshold(self, flat_values: np.ndarray, over: np.ndarray, x: np.ndarray) -> None:
        """Set the copies of the links flagged ``over`` to ``max(y - theta, 0)``."""
        np.negative(flat_values, out=self._negated[:-1])
        rows = self._negated[self._cells[over]]
        rows.sort(axis=1)
        bounds = rows.cumsum(axis=1)
        bounds += self._cap_column[over]
        bounds /= self._ranks
        # the last passing cell, or the row's last copy when none passes
        back = np.maximum((bounds > rows)[:, ::-1].argmax(axis=1), self._pads[over])
        tau = np.zeros(over.size)  # 0 leaves a link under its cap as clipped
        tau[over] = bounds.ravel()[self._row_ends[: back.size] - back]
        np.maximum(flat_values + tau[self._copy_row], 0.0, out=x)

    def _repair(self, x: np.ndarray) -> None:
        """Take any rounding excess off each link still over its cap, so that
        every link's canonical sum is at most its cap."""
        for _ in range(64):
            totals = segment_sums(x, self._starts)
            bad = ~(totals <= self._caps)
            if not bad.any():
                return
            at = self._starts[bad] + self._clipped[self._cells[bad]].argmax(axis=1)
            x[at] = np.maximum(x[at] - (totals[bad] - self._caps[bad]), 0.0)
        raise ProjectionError("could not repair rounding excess")


def project_polyhedron(instance: Instance, point: np.ndarray) -> np.ndarray:
    """Euclidean projection of ``point`` onto ``{x >= 0, loads <= capacities}``.

    :func:`path_following` on ``||x - y||^2 / 2``: gradient ``x - y``,
    curvature 1 and scale ``max |y|``.  A load may exceed its cap by the
    tolerance; the solvers serve only extracts, which fit exactly.

    Raises :class:`ProjectionError` for a point that is not finite or an
    instance with a route on no link, and :class:`DykstraError` as
    :func:`path_following` does.
    """
    y = np.asarray(point, dtype=np.float64)
    if y.shape != (instance.n_routes,):
        raise ProjectionError(f"point has shape {y.shape}, expected ({instance.n_routes},)")
    if not np.all(np.isfinite(y)):
        raise ProjectionError("point must be finite")
    if not np.bincount(instance.incidence.copy_route, minlength=instance.n_routes).all():
        raise ProjectionError("every route must traverse at least one link")
    if not instance.n_routes:
        return y.copy()
    return path_following(instance, lambda x: x - y, lambda x: 1.0, np.max(np.abs(y)))


def path_following(
    instance: Instance,
    gradient: Callable[[np.ndarray], np.ndarray],
    curvature: Callable[[np.ndarray], np.ndarray | float],
    scale: float,
) -> np.ndarray:
    """Minimize a separable convex ``f`` over ``{x >= 0, loads <= capacities}``.

    ``gradient(x)`` and ``curvature(x)`` give ``f``'s gradient and the
    diagonal of its Hessian at an interior ``x``.  Path-following on
    ``min f(x)`` subject to ``Ax + s = C`` and ``x, s >= 0``, with
    multipliers ``mu`` for the links and ``nu`` for ``x >= 0``.  It starts at
    half of each route's equal-split share with every multiplier at 1, aims
    each Newton step at a tenth of the mean complementarity and stops it 1%
    short of the boundary.  It stops once the primal and dual residuals and
    the root of the mean complementarity are at most
    ``POLYHEDRON_TOL * max(1, scale, max C)``, and returns ``x`` with every
    rate below its multiplier set to 0: a bound active at the optimum comes
    back as an exact 0.  Every route must traverse a link.

    Raises :class:`DykstraError` with the last iterate and its residual after
    ``POLYHEDRON_STEPS`` steps.
    """
    inc = instance.incidence
    n_links, n_routes = instance.n_links, instance.n_routes
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
    tol = POLYHEDRON_TOL * max(1.0, scale, np.max(caps))
    for steps in range(POLYHEDRON_STEPS + 1):
        r_dual = gradient(x) + prices(mu) - nu
        r_primal = loads(x) + s - caps
        gap = (mu @ s + nu @ x) / (n_links + n_routes)
        residual = max(np.max(np.abs(r_dual)), np.max(np.abs(r_primal)), np.sqrt(gap))
        if residual <= tol:
            x[nu > x] = 0.0
            return x
        if steps == POLYHEDRON_STEPS:
            break
        target = 0.1 * gap
        g = curvature(x) + nu / x
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

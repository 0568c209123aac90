"""Independent reference implementations used to check the package's math.

Everything here is deliberately derived from first principles only — the
objective definitions and the KKT conditions — and shares no code with the
package internals, so agreement is evidence rather than tautology.  The
scalar searches run in extended precision (80-bit long double) to keep the
oracle's own rounding error far below the comparison tolerances.
"""

from __future__ import annotations

import itertools

import numpy as np


def penalized_cost(alpha: float, w: float, v: float, lam: float, x):
    """g(x) + (x - v)^2 / (2 lam) with g the negated alpha-fair utility."""
    x = np.longdouble(x)
    w = np.longdouble(w)
    v = np.longdouble(v)
    lam = np.longdouble(lam)
    if alpha == 1.0:
        g = -w * np.log(x) if x > 0 else np.longdouble(np.inf)
    elif alpha == 0.0:
        g = -w * x
    else:
        p = np.longdouble(1.0 - alpha)
        if x > 0:
            g = -w * x**p / p
        else:
            # barrier for alpha > 1; finite limit 0 for alpha < 1
            g = np.longdouble(np.inf) if alpha > 1 else np.longdouble(0.0)
    return g + (x - v) ** 2 / (2 * lam)


def prox_oracle(alpha: float, w: float, v: float, lam: float) -> float:
    """Ternary-search-plus-bisection minimizer of the penalized cost on x >= 0.

    The cost is strictly convex on the feasible ray, so ternary search on a
    bracket containing the minimizer converges unconditionally.  The upper
    end max(v,0) + (lam*w)^(1/(1+alpha)) + 1 exceeds any stationary point of
    the smooth branch because x^alpha * (x - v) grows monotonically past it.
    Near the minimum the cost is too flat for value comparisons to resolve
    the location beyond ~sqrt(eps), so for alpha > 0 (interior minimizer) the
    bracket is then refined by bisecting on the *sign* of the derivative
    (x - v)/lam - w * x^(-alpha), which is increasing and stays perfectly
    resolvable; 180 halvings pin the root to long-double resolution.
    """
    alpha_l = np.longdouble(alpha)
    w_l = np.longdouble(w)
    v_l = np.longdouble(v)
    lam_l = np.longdouble(lam)
    lo = np.longdouble(0.0)
    hi = np.longdouble(max(v, 0.0)) + np.longdouble(lam * w) ** (
        np.longdouble(1.0) / np.longdouble(1.0 + alpha)
    ) + 1.0
    for _ in range(40):
        third = (hi - lo) / 3
        a = lo + third
        b = hi - third
        if penalized_cost(alpha, w, v, lam, a) <= penalized_cost(alpha, w, v, lam, b):
            hi = b
        else:
            lo = a
    if alpha > 0:
        for _ in range(180):
            mid = (lo + hi) / 2
            if (mid - v_l) / lam_l - w_l * mid ** (-alpha_l) < 0:
                lo = mid
            else:
                hi = mid
    return float((lo + hi) / 2)


def project_oracle(y: np.ndarray, cap: float, tol: float = 1e-9) -> np.ndarray:
    """KKT active-set enumeration for min ||x - y||^2 s.t. x >= 0, sum x <= cap.

    For each guess of the zero set and of whether the sum constraint binds,
    the stationarity system is solved in closed form and the KKT sign and
    feasibility conditions are checked; the valid candidate closest to y is
    the projection (it is unique, but taking the argmin is robust to ties at
    tolerance level).
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    best = None
    best_dist = np.inf
    for zeros in itertools.product((False, True), repeat=n):
        free = np.array([not z for z in zeros])
        x = np.zeros(n)
        for sum_active in (False, True):
            if sum_active:
                if not free.any():
                    continue
                theta = (y[free].sum() - cap) / free.sum()
                if theta < -tol:
                    continue  # sum-constraint multiplier must be >= 0
                x_free = y[free] - theta
            else:
                theta = 0.0
                x_free = y[free] if free.any() else np.zeros(0)
                if x_free.sum() > cap + tol:
                    continue
            if (x_free < -tol).any():
                continue
            # zero coordinates need nonnegative multipliers: theta - y_i >= 0
            if (y[~free] > theta + tol).any():
                continue
            x[:] = 0.0
            x[free] = np.maximum(x_free, 0.0)
            dist = float(((x - y) ** 2).sum())
            if dist < best_dist:
                best_dist = dist
                best = x.copy()
    assert best is not None, "no KKT point found (enumeration bug)"
    return best


def _feasible_mask(instance, grid: np.ndarray) -> np.ndarray:
    """Row mask of grid points satisfying every link capacity."""
    ok = np.ones(grid.shape[0], dtype=bool)
    for j in range(instance.n_links):
        members = [r.id for r in instance.routes if j in r.links]
        if members:
            ok &= grid[:, members].sum(axis=1) <= instance.links[j].capacity
    return ok


def _utilities(alpha: float, weights: np.ndarray, grid: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        if alpha == 0.0:
            return grid @ weights
        if alpha == 1.0:
            vals = np.log(grid) @ weights
        else:
            p = 1.0 - alpha
            vals = (grid**p / p) @ weights
    vals[np.any(grid <= 0, axis=1) & (alpha >= 1.0)] = -np.inf
    return vals


def grid_maximizer(instance, alpha: float, weights: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Brute-force utility maximizer on a grid, refined down to ``step``.

    Two-route instances are scanned outright at the final resolution; larger
    ones start coarse and shrink the window around the incumbent by 10x per
    level, which loses nothing because the utility is concave and the
    feasible set convex.
    """
    caps = np.array([l.capacity for l in instance.links])
    upper = np.array([min(caps[j] for j in r.links) for r in instance.routes])
    n = instance.n_routes
    assert n in (2, 3), "grid oracle is for 2-3 route instances"

    def scan(center: np.ndarray, half: np.ndarray, s: float) -> np.ndarray:
        axes = []
        for i in range(n):
            lo = max(s, center[i] - half[i])
            hi = min(upper[i] + s, center[i] + half[i])
            axes.append(np.arange(lo, hi + s / 2, s))
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([m.ravel() for m in mesh], axis=1)
        ok = _feasible_mask(instance, grid)
        assert ok.any(), "no feasible grid point"
        grid = grid[ok]
        vals = _utilities(alpha, weights, grid)
        return grid[int(np.argmax(vals))]

    if n == 2:
        return scan(upper / 2, upper, step)
    s = float(np.max(upper)) / 40.0
    best = scan(upper / 2, upper, s)
    while s > step:
        s_next = max(step, s / 10.0)
        best = scan(best, np.full(n, 2.5 * s), s_next)
        s = s_next
    return best


def sequential_dykstra(instance, point, order, project, tolerance=None, cycles=3000):
    """Dykstra's method visiting one link at a time in ``order``, then the orthant.

    ``project(values, cap)`` projects onto one link's capped simplex; every
    set is visited offset by its own correction term.  With a ``tolerance``
    the loop stops after the first cycle in which the iterate and every
    correction term moved at most ``tolerance/10`` (sup norm); without one
    it runs exactly ``cycles`` cycles.  Returns the point and the cycles run.
    """
    members = {j: np.array([r.id for r in instance.routes if j in r.links], dtype=np.intp) for j in order}
    x = np.array(point, dtype=np.float64)
    corrections = {j: np.zeros(members[j].size) for j in order}
    orthant = np.zeros_like(x)
    for cycle in range(1, cycles + 1):
        previous = x.copy()
        moved = 0.0
        for j in order:
            w = x[members[j]] + corrections[j]
            z = project(w, instance.links[j].capacity)
            moved = max(moved, float(np.max(np.abs((w - z) - corrections[j]))))
            corrections[j] = w - z
            x[members[j]] = z
        w = x + orthant
        z = np.maximum(w, 0.0)
        moved = max(moved, float(np.max(np.abs((w - z) - orthant))), float(np.max(np.abs(z - previous))))
        orthant = w - z
        x = z
        if tolerance is not None and moved <= tolerance / 10.0:
            break
    return x, cycle

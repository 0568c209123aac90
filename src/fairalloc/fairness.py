"""Weighted alpha-fair utilities, proximal operators, and penalty selection.

The per-route utility is ``w * x**(1-alpha) / (1-alpha)`` for ``alpha != 1``
and ``w * log(x)`` at ``alpha == 1``; the solver minimizes its negation, whose
proximal map has a closed form at ``alpha`` in {0, 1} and is otherwise the
unique positive root of ``x**alpha * (x - v) = lam * w``.

Penalty selection follows the reciprocal-penalty rule ``lam = 1/sqrt(sigma*L)``
where ``sigma`` and ``L`` are the strong-convexity and gradient-Lipschitz
moduli of the negated objective on the box between a positive floor and the
per-route bottleneck capacities.  ``adapt_penalty`` re-evaluates that rule
with the floor replaced by the latest feasible iterate, and is implemented as
literally that composition so the two code paths can never drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import Instance
from .numerics import canonical_sum


class FairnessError(ValueError):
    """Raised for arguments outside an operator's domain."""


@dataclass(frozen=True)
class FairnessObjective:
    alpha: float
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if self.alpha < 0 or not np.isfinite(self.alpha):
            raise FairnessError(f"alpha must be finite and >= 0, got {self.alpha}")
        if w.ndim != 1 or w.size == 0 or not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise FairnessError("weights must be a 1-D array of positive finite numbers")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "alpha", float(self.alpha))


def default_objective(instance: Instance) -> FairnessObjective:
    return FairnessObjective(alpha=instance.alpha, weights=instance.weights)


def utility(objective: FairnessObjective, allocation: np.ndarray) -> float:
    """Total utility; -inf when a zero rate meets alpha >= 1."""
    x = np.asarray(allocation, dtype=np.float64)
    w = objective.weights
    a = objective.alpha
    if x.shape != w.shape:
        raise FairnessError(f"allocation shape {x.shape} != weights shape {w.shape}")
    if np.any(x < 0):
        raise FairnessError("allocation must be nonnegative")
    if a == 0.0:
        return canonical_sum(w * x)
    if a >= 1.0 and np.any(x == 0.0):
        return float("-inf")
    if a == 1.0:
        return canonical_sum(w * np.log(x))
    p = 1.0 - a
    return canonical_sum(w * x**p) / p


def cost_gradient(objective: FairnessObjective, allocation: np.ndarray) -> np.ndarray:
    """Gradient of the negated utility: ``-w * x**(-alpha)`` (requires x > 0 for alpha > 0)."""
    x = np.asarray(allocation, dtype=np.float64)
    if objective.alpha == 0.0:
        return -objective.weights * np.ones_like(x)
    if np.any(x <= 0):
        raise FairnessError("gradient needs strictly positive rates for alpha > 0")
    return -objective.weights * x ** (-objective.alpha)


# ---------------------------------------------------------------------------
# proximal operator of lam * (negated per-route utility)

_ROOT_MAX_STEPS = 400


def prox_values(alpha: float, weights: np.ndarray, values: np.ndarray, lam: float) -> np.ndarray:
    """Elementwise prox of the negated utility with reciprocal penalty ``lam``.

    Closed forms: ``alpha == 1`` gives ``(v + sqrt(v^2 + 4*lam*w)) / 2``;
    ``alpha == 0`` gives ``max(v + lam*w, 0)``.  For other ``alpha > 0`` the
    root of ``x**alpha * (x - v) = lam*w`` is found by a safeguarded Newton
    iteration inside the bracket ``[max(v, 0), max(v, 0) + (lam*w)**(1/(1+alpha))]``
    to residual tolerance ``1e-12 * max(1, lam*w)`` — or, when that residual
    is below what adjacent float64 values of x can express, to the correctly
    rounded root (bracket collapsed to one ulp).

    Each element's update sequence depends only on its own trajectory, so the
    result is bitwise independent of how inputs are batched.
    """
    w = np.asarray(weights, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if lam <= 0 or not np.isfinite(lam):
        raise FairnessError(f"penalty must be finite and > 0, got {lam}")
    if alpha < 0 or not np.isfinite(alpha):
        raise FairnessError(f"alpha must be finite and >= 0, got {alpha}")
    if w.shape != v.shape:
        raise FairnessError("weights and values must have matching shapes")
    target = lam * w
    if alpha == 1.0:
        return (v + np.sqrt(v * v + 4.0 * target)) / 2.0
    if alpha == 0.0:
        return np.maximum(v + target, 0.0)

    lo = np.maximum(v, 0.0)
    span = target ** (1.0 / (1.0 + alpha))
    hi = lo + span
    # widen against rounding until the bracket provably contains the root
    for _ in range(_ROOT_MAX_STEPS):
        bad = hi**alpha * (hi - v) < target
        if not np.any(bad):
            break
        hi = np.where(bad, lo + 2.0 * (hi - lo), hi)
    x = hi.copy()
    tol = 1e-12 * np.maximum(1.0, target)
    active = np.arange(x.size)
    lo_a, hi_a, x_a = lo.ravel().copy(), hi.ravel().copy(), x.ravel()
    v_a, t_a, tol_a = v.ravel(), target.ravel(), tol.ravel()
    for _ in range(_ROOT_MAX_STEPS):
        if active.size == 0:
            break
        xs = x_a[active]
        vs = v_a[active]
        ts = t_a[active]
        pa = xs**alpha
        phi = pa * (xs - vs) - ts
        done = np.abs(phi) <= tol_a[active]
        # shrink bracket around the current sign pattern
        lo_act = lo_a[active]
        hi_act = hi_a[active]
        lo_act = np.where(phi < 0, xs, lo_act)
        hi_act = np.where(phi > 0, xs, hi_act)
        # overflow in the slope for subnormal xs yields a non-finite candidate,
        # which the `inside` check below discards in favor of bisection
        with np.errstate(over="ignore", invalid="ignore"):
            dphi = np.where(xs > 0, pa * (alpha * (xs - vs) / np.where(xs > 0, xs, 1.0) + 1.0), 1.0)
            step = np.where(dphi > 0, phi / np.where(dphi > 0, dphi, 1.0), 0.0)
            cand = xs - step
        inside = (cand > lo_act) & (cand < hi_act) & np.isfinite(cand)
        # fallback bisection: arithmetic midpoint once the lower bound is
        # positive, geometric descent while it is still zero (the root can sit
        # hundreds of orders of magnitude below hi for small alpha with v < 0,
        # where halving the width would need ~1000 steps)
        mid = np.where(lo_act > 0.0, 0.5 * (lo_act + hi_act), hi_act * 2.0**-8)
        mid = np.where(mid > lo_act, mid, 0.5 * (lo_act + hi_act))
        cand = np.where(inside, cand, mid)
        # bracket collapsed to adjacent floats: the iterate is the correctly
        # rounded root even if the residual target is not expressible
        stuck = hi_act - lo_act <= np.spacing(hi_act)
        x_a[active] = np.where(done | stuck, xs, cand)
        lo_a[active] = lo_act
        hi_a[active] = hi_act
        active = active[~(done | stuck)]
    else:
        raise FairnessError("prox root search failed to converge")
    return x_a.reshape(v.shape)


# ---------------------------------------------------------------------------
# convexity moduli and penalty selection

@dataclass(frozen=True)
class Moduli:
    """Strong convexity ``sigma`` and gradient Lipschitz constant ``lipschitz``
    of the negated objective on the box [floor, bottlenecks]."""

    sigma: float
    lipschitz: float
    bottlenecks: np.ndarray
    floor: np.ndarray


@dataclass(frozen=True)
class PenaltyState:
    value: float
    tau: int = 30
    frozen: bool = False


def bottleneck_capacities(instance: Instance) -> np.ndarray:
    """Per-route bottleneck ``B_r = min_{j in r} C_j``."""
    caps = instance.capacities
    return np.array([min(caps[j] for j in route.links) for route in instance.routes])


def _moduli_arrays(alpha: float, weights: np.ndarray, bottlenecks: np.ndarray, floor: np.ndarray) -> Moduli:
    if alpha == 0.0:
        raise FairnessError("moduli degenerate at alpha == 0 (sigma = L = 0)")
    floor = np.asarray(floor, dtype=np.float64)
    bottlenecks = np.asarray(bottlenecks, dtype=np.float64)
    if np.any(floor <= 0) or not np.all(np.isfinite(floor)):
        raise FairnessError("floor must be strictly positive")
    if np.any(bottlenecks <= 0):
        raise FairnessError("bottleneck capacities must be strictly positive")
    sigma = alpha * float(np.min(weights / bottlenecks ** (alpha + 1.0)))
    lipschitz = alpha * float(np.max(weights / floor ** (alpha + 1.0)))
    return Moduli(sigma=sigma, lipschitz=lipschitz, bottlenecks=bottlenecks, floor=floor)


def moduli(instance: Instance, objective: FairnessObjective, floor: np.ndarray) -> Moduli:
    return _moduli_arrays(objective.alpha, objective.weights, bottleneck_capacities(instance), floor)


def optimal_lambda(mod: Moduli) -> float:
    """Reciprocal penalty minimizing the convergence-factor bound: ``1/sqrt(sigma*L)``."""
    return 1.0 / math.sqrt(mod.sigma * mod.lipschitz)


def adapt_penalty(
    state: PenaltyState,
    iteration: int,
    feasible_point: np.ndarray,
    objective: FairnessObjective,
    bottlenecks: np.ndarray,
) -> PenaltyState:
    """Re-pick the penalty from the latest feasible point; freeze past ``tau``.

    Composes ``_moduli_arrays`` with ``optimal_lambda`` so the result equals
    that two-step computation exactly, in floating point.  A feasible point
    with a zero coordinate leaves the penalty unchanged for this iteration.
    """
    if state.frozen or iteration >= state.tau:
        return replace(state, frozen=True)
    point = np.asarray(feasible_point, dtype=np.float64)
    if np.any(point <= 0):
        return state
    mod = _moduli_arrays(objective.alpha, objective.weights, bottlenecks, point)
    return replace(state, value=optimal_lambda(mod))

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairalloc import fairness
from fairalloc.fairness import (
    FairnessError,
    FairnessObjective,
    Moduli,
    PenaltyState,
    adapt_penalty,
    bottleneck_capacities,
    cost_gradient,
    default_objective,
    moduli,
    optimal_lambda,
    prox_values,
    utility,
)

from oracles import prox_oracle


def obj(alpha, *weights):
    return FairnessObjective(alpha=alpha, weights=np.array(weights, dtype=np.float64))


# ---------------------------------------------------------------------------
# utility and gradient

def test_utility_log_case():
    assert utility(obj(1.0, 1.0, 1.0), np.array([1.0, 1.0])) == 0.0
    assert utility(obj(1.0, 2.0), np.array([math.e])) == pytest.approx(2.0)


def test_utility_linear_case():
    assert utility(obj(0.0, 2.0, 3.0), np.array([1.0, 1.0])) == 5.0


def test_utility_alpha_two():
    # w * x^(1-alpha) / (1-alpha) = 1 * 2^-1 / -1 = -1/2
    assert utility(obj(2.0, 1.0), np.array([2.0])) == -0.5


def test_utility_zero_rate():
    assert utility(obj(1.0, 1.0), np.array([0.0])) == -math.inf
    assert utility(obj(3.0, 1.0), np.array([0.0])) == -math.inf
    assert utility(obj(0.5, 1.0), np.array([0.0])) == 0.0  # finite limit below alpha=1


def test_utility_validates():
    with pytest.raises(FairnessError):
        utility(obj(1.0, 1.0), np.array([-0.1]))
    with pytest.raises(FairnessError):
        utility(obj(1.0, 1.0, 1.0), np.array([1.0]))


def test_cost_gradient_is_negated_marginal_utility():
    o = obj(2.0, 3.0, 5.0)
    x = np.array([0.5, 2.0])
    np.testing.assert_allclose(cost_gradient(o, x), -o.weights * x**-2.0, rtol=1e-15)


def test_objective_validation():
    with pytest.raises(FairnessError):
        FairnessObjective(alpha=-1.0, weights=np.array([1.0]))
    with pytest.raises(FairnessError):
        FairnessObjective(alpha=1.0, weights=np.array([0.0]))
    o = obj(1.0, 1.0)
    with pytest.raises(ValueError):
        o.weights[0] = 2.0  # read-only buffer


# ---------------------------------------------------------------------------
# proximal operator

def test_prox_closed_form_examples():
    assert prox_values(1.0, np.array([1.0]), np.array([0.0]), 1.0)[0] == pytest.approx(1.0, abs=1e-12)
    assert prox_values(2.0, np.array([8.0]), np.array([0.0]), 1.0)[0] == pytest.approx(2.0, abs=1e-10)
    assert prox_values(1.0, np.array([2.0]), np.array([1.0]), 1.0)[0] == pytest.approx(2.0, abs=1e-12)


def test_prox_alpha_zero_is_shifted_clamp():
    got = prox_values(0.0, np.array([2.0, 1.0]), np.array([-3.0, 4.0]), 1.0)
    np.testing.assert_array_equal(got, [0.0, 5.0])


def test_prox_scalar_matches_batch_bitwise():
    o = obj(1.7, 0.3, 2.0, 11.0)
    v = np.array([-2.0, 0.7, 31.0])
    batch = prox_values(o.alpha, o.weights, v, 0.9)
    for r in range(3):
        assert prox_values(o.alpha, o.weights[r : r + 1], v[r : r + 1], 0.9)[0] == batch[r]


def test_prox_validates():
    with pytest.raises(FairnessError):
        prox_values(1.0, np.array([1.0]), np.array([0.0]), 0.0)
    with pytest.raises(FairnessError):
        prox_values(1.0, np.array([1.0]), np.array([0.0, 1.0]), 1.0)
    with pytest.raises(FairnessError):
        prox_values(-0.5, np.array([1.0]), np.array([0.0]), 1.0)
    w, v = np.array([1.0, 2.0]), np.array([0.5, -1.0])
    for alpha in (0.0, 1.0, 2.0):
        for start in (np.array([1.0]), np.ones((2, 1)), np.array([1.0, np.nan]), np.array([np.inf, 1.0])):
            with pytest.raises(FairnessError, match="start"):
                prox_values(alpha, w, v, 1.0, start=start)


def test_prox_rejects_non_finite_values():
    w = np.array([1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (0.0, 0.5, 1.0, 2.0):
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(FairnessError, match="values"):
                    prox_values(alpha, w, np.array([bad, 1.0]), 1.0)
            # a weight that is not finite and > 0, next to a valid one
            for bad in (-1.0, 0.0, np.nan, np.inf):
                with pytest.raises(FairnessError, match="weights"):
                    prox_values(alpha, np.array([1.0, bad]), np.array([0.5, 1.0]), 1.0)


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(0.1, 6.0)),
    w=st.floats(1e-3, 1e3),
    v=st.floats(-10.0, 50.0),
    lam=st.floats(1e-3, 1e3),
)
def test_prox_first_order_condition(alpha, w, v, lam):
    x = float(prox_values(alpha, np.array([w]), np.array([v]), lam)[0])
    assert x >= max(v, 0.0)
    # true residual in extended precision; allow a few-ulp slack in x itself,
    # since for steep roots (large v, alpha > 1) no float64 x can push the
    # residual below |phi'(x)| * ulp(x)
    xl = np.longdouble(x)
    residual = float(xl**alpha * (xl - np.longdouble(v)) - np.longdouble(lam) * np.longdouble(w))
    dphi = x**alpha * (1.0 + alpha * (x - v) / x) if x > 0 else 1.0
    assert abs(residual) <= 1e-10 * max(1.0, lam * w) + 4.0 * dphi * np.spacing(x)


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.floats(0.0, 5.0),
    w=st.floats(1e-2, 1e2),
    v1=st.floats(-20.0, 40.0),
    v2=st.floats(-20.0, 40.0),
    lam=st.floats(1e-2, 1e2),
)
def test_prox_firmly_nonexpansive(alpha, w, v1, v2, lam):
    ws = np.array([w])
    x1 = float(prox_values(alpha, ws, np.array([v1]), lam)[0])
    x2 = float(prox_values(alpha, ws, np.array([v2]), lam)[0])
    dx, dv = x1 - x2, v1 - v2
    assert dx * dv >= dx * dx - 1e-9 * max(1.0, dv * dv)


def test_prox_matches_independent_minimizer():
    rng = np.random.default_rng(77)
    for _ in range(60):
        alpha = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        w = float(rng.uniform(0.05, 20.0))
        v = float(rng.uniform(-5.0, 10.0))
        lam = float(rng.uniform(0.05, 20.0))
        got = float(prox_values(alpha, np.array([w]), np.array([v]), lam)[0])
        assert got == pytest.approx(prox_oracle(alpha, w, v, lam), abs=1e-8, rel=1e-8)


def test_prox_batch_order_independence():
    # every window of lengths 1, 7 and 64: the closed form at alpha = 1/2 goes
    # through numpy's vector loops for cbrt, arccos and cos, whose result must
    # not depend on an element's position in the array or the array's length
    rng = np.random.default_rng(3)
    w = rng.uniform(0.1, 30.0, size=64)
    v = rng.uniform(-5.0, 20.0, size=64)
    perm = rng.permutation(64)
    for alpha in (0.5, 2.5):
        for start in (None, rng.uniform(-1.0, 25.0, size=64)):
            full = prox_values(alpha, w, v, 0.7, start=start)
            shuffled = prox_values(alpha, w[perm], v[perm], 0.7, start=None if start is None else start[perm])
            np.testing.assert_array_equal(shuffled, full[perm])
            for n in (1, 7, 64):
                for lo in range(64 - n + 1):
                    part = slice(lo, lo + n)
                    one = None if start is None else start[part]
                    np.testing.assert_array_equal(prox_values(alpha, w[part], v[part], 0.7, start=one), full[part])


def _start_case(seed, n=64):
    """Weights, values and penalty whose roots are of order one, so the
    residual tolerance ``1e-12 * max(1, lam*w)`` is what stops the search."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 3.0, n), rng.uniform(-3.0, 3.0, n), 0.8


def _residual(alpha, w, v, lam, x):
    return x**alpha * (x - v) - lam * w


def test_prox_start_meets_tolerance_and_agrees_with_cold_start():
    for alpha in (0.5, 2.0, 3.7):
        w, v, lam = _start_case(5)
        cold = prox_values(alpha, w, v, lam)
        lo = np.maximum(v, 0.0)
        starts = {
            "random": np.random.default_rng(6).uniform(-5.0, 10.0, v.size),
            "below lo": lo - 1.0,
            "above hi": lo + 1e6,
            "zero": np.zeros(v.size),
        }
        tol = 1e-12 * np.maximum(1.0, lam * w)
        for name, start in starts.items():
            warm = prox_values(alpha, w, v, lam, start=start)
            assert np.all(np.abs(_residual(alpha, w, v, lam, warm)) <= tol), (alpha, name)
            # phi' >= x**alpha above max(v, 0), so two points within the
            # tolerance lie within 2 tol / min(x)**alpha of each other
            bound = 2.0 * tol / np.minimum(warm, cold) ** alpha + 2.0 * np.spacing(cold)
            assert np.all(np.abs(warm - cold) <= bound), (alpha, name)


def test_prox_start_at_the_root_stops_after_one_pass(monkeypatch):
    alpha = 2.0
    w, v, lam = _start_case(7)
    root = prox_values(alpha, w, v, lam)
    assert np.all(np.abs(_residual(alpha, w, v, lam, root)) <= 1e-12 * np.maximum(1.0, lam * w))
    # two loop passes: one that finds every residual within tolerance, one
    # that sees nothing left to do; the cold start needs more
    monkeypatch.setattr(fairness, "_ROOT_MAX_STEPS", 2)
    np.testing.assert_array_equal(prox_values(alpha, w, v, lam, start=root), root)
    with pytest.raises(FairnessError, match="failed to converge"):
        prox_values(alpha, w, v, lam)


def test_prox_closed_forms_ignore_start():
    w, v, lam = _start_case(11)
    start = np.random.default_rng(12).uniform(-1.0, 4.0, v.size)
    for alpha in (0.0, 0.5, 1.0):
        np.testing.assert_array_equal(prox_values(alpha, w, v, lam, start=start), prox_values(alpha, w, v, lam))


def test_prox_half_closed_form_over_wide_scales():
    rng = np.random.default_rng(19)
    n = 200_000
    v = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 6.0, n)
    w = 10.0 ** rng.uniform(-3.0, 3.0, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = prox_values(0.5, w, v, 1.0)
    assert np.all(np.isfinite(x))
    assert np.all(x >= np.maximum(v, 0.0))
    # the residual bound of test_prox_first_order_condition, in extended precision
    xl = x.astype(np.longdouble)
    residual = (np.sqrt(xl) * (xl - v.astype(np.longdouble)) - w.astype(np.longdouble)).astype(np.float64)
    dphi = np.sqrt(x) * (1.0 + 0.5 * (x - v) / x)
    assert np.all(np.abs(residual) <= 1e-10 * np.maximum(1.0, w) + 4.0 * dphi * np.spacing(x))
    # far beyond that range the closed form's Newton step overflows: a typed
    # error, not an infinite rate
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FairnessError, match="no finite root"):
        prox_values(0.5, np.array([1.0]), np.array([1e250]), 1.0)


# ---------------------------------------------------------------------------
# moduli and penalty selection

def test_bottlenecks(tiny_instance):
    np.testing.assert_array_equal(bottleneck_capacities(tiny_instance), [2.0, 1.5])


def test_moduli_example(tiny_instance):
    o = obj(1.0, 1.0, 1.0)
    weights = np.array([1.0, 1.0])
    bott = np.array([1.0, 2.0])
    from fairalloc.fairness import _moduli_arrays

    mod = _moduli_arrays(1.0, weights, bott, np.array([1.0, 1.0]))
    assert mod.sigma == 0.25
    assert mod.lipschitz == 1.0


def test_moduli_rejects_alpha_zero(tiny_instance):
    o = FairnessObjective(alpha=0.0, weights=tiny_instance.weights)
    with pytest.raises(FairnessError, match="alpha == 0"):
        moduli(tiny_instance, o, np.ones(2))


def test_moduli_rejects_nonpositive_floor(tiny_instance):
    o = default_objective(tiny_instance)
    with pytest.raises(FairnessError, match="floor"):
        moduli(tiny_instance, o, np.array([1.0, 0.0]))


def test_optimal_lambda_examples():
    mk = lambda s, L: Moduli(sigma=s, lipschitz=L, bottlenecks=np.ones(1), floor=np.ones(1))
    assert optimal_lambda(mk(1.0, 1.0)) == 1.0
    assert optimal_lambda(mk(0.25, 4.0)) == 1.0
    assert optimal_lambda(mk(0.01, 100.0)) == 1.0
    assert optimal_lambda(mk(4.0, 1.0)) == 0.5


def test_adapt_penalty_matches_rule_composition():
    o = obj(1.0, 1.0, 1.0)
    bott = np.ones(2)
    state = PenaltyState(value=1.0)
    out = adapt_penalty(state, 3, np.array([0.5, 0.5]), o, bott)
    assert out.value == 0.5
    assert not out.frozen


def test_adapt_penalty_freezes_at_tau():
    o = obj(1.0, 1.0, 1.0)
    state = PenaltyState(value=0.7, tau=30)
    out = adapt_penalty(state, 30, np.array([0.5, 0.5]), o, np.ones(2))
    assert out.frozen and out.value == 0.7
    again = adapt_penalty(out, 2, np.array([0.9, 0.9]), o, np.ones(2))
    assert again.frozen and again.value == 0.7


def test_adapt_penalty_skips_nonpositive_point():
    o = obj(1.0, 1.0, 1.0)
    state = PenaltyState(value=0.7)
    out = adapt_penalty(state, 1, np.array([0.5, 0.0]), o, np.ones(2))
    assert out == state


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_moduli_certificates(seed):
    """sigma and L really bound the gradient of the negated objective on the box."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    alpha = float(rng.uniform(0.3, 4.0))
    w = rng.uniform(0.1, 10.0, size=n)
    floor = rng.uniform(0.05, 1.0, size=n)
    bott = floor + rng.uniform(0.1, 5.0, size=n)
    o = FairnessObjective(alpha=alpha, weights=w)
    from fairalloc.fairness import _moduli_arrays

    mod = _moduli_arrays(alpha, w, bott, floor)
    for _ in range(20):
        u = rng.uniform(floor, bott)
        z = rng.uniform(floor, bott)
        gu, gz = cost_gradient(o, u), cost_gradient(o, z)
        d = u - z
        nd2 = float(d @ d)
        inner = float((gu - gz) @ d)
        assert inner >= mod.sigma * nd2 - 1e-9 * max(1.0, nd2)
        assert float(np.linalg.norm(gu - gz)) <= mod.lipschitz * math.sqrt(nd2) + 1e-9

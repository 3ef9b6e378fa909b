import math

import numpy as np
import pytest
from scipy.optimize import brentq

from graphcert import (
    BadLevel,
    NonpositiveGap,
    davis_kahan_radius,
    deviation_quantile,
    deviation_quantile_from_envelope,
    symmetric_operator_norm,
    variance_proxy,
)


def test_variance_proxy_extremes():
    assert variance_proxy(np.zeros((5, 5))) == 0.0
    ones = np.ones((5, 5)) - np.eye(5)
    assert variance_proxy(ones) == 0.0


def test_variance_proxy_worked_instance(sbm200):
    # direct summation oracle: 99 * .3 * .7 + 100 * .1 * .9
    v = variance_proxy(sbm200.P)
    oracle = 99 * 0.3 * 0.7 + 100 * 0.1 * 0.9
    assert abs(v - oracle) < 1e-12
    assert abs(v - 29.79) < 1e-12


def test_variance_proxy_below_degree_bound(rng):
    for _ in range(10):
        P = rng.uniform(size=(20, 20))
        P = (P + P.T) / 2
        np.fill_diagonal(P, 0.0)
        v = variance_proxy(P)
        assert v <= np.max(P.sum(axis=1)) + 1e-12


def test_quantile_zero_variance_reduces_to_linear_term():
    q = deviation_quantile(0.0, 200, 0.05)
    assert abs(q.q - (2.0 / 3.0) * math.log(2 * 200 / 0.05)) < 1e-12


def test_quantile_matches_numeric_tail_inversion():
    # oracle: solve 2 n exp(-(t^2/2)/(v + t/3)) = alpha numerically
    n, alpha, v = 200, 0.05, 39.7
    q = deviation_quantile(v, n, alpha).q

    def tail(t):
        return 2 * n * math.exp(-(t * t / 2) / (v + t / 3)) - alpha

    t_star = brentq(tail, 1e-9, 1e6, xtol=1e-12)
    assert abs(q - t_star) < 1e-9
    # and the tail equation is satisfied to 1e-9 relative
    assert abs(2 * n * math.exp(-(q * q / 2) / (v + q / 3)) - alpha) < 1e-9 * alpha


def test_quantile_monotonicity():
    q10 = deviation_quantile(10.0, 200, 0.05).q
    q40 = deviation_quantile(40.0, 200, 0.05).q
    assert q10 < q40
    tight = deviation_quantile(10.0, 200, 0.01).q
    loose = deviation_quantile(10.0, 200, 0.2).q
    assert loose < tight


def test_quantile_rejects_bad_level():
    for alpha in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(BadLevel):
            deviation_quantile(1.0, 10, alpha)


@pytest.mark.parametrize(
    "quantile", [deviation_quantile, deviation_quantile_from_envelope], ids=["v_bound", "d_max"]
)
def test_quantile_refuses_a_nan_variance_bound(quantile):
    # a NaN bound is bad input, not a quantile that overflows
    with pytest.raises(ValueError, match="must be nonnegative"):
        quantile(math.nan, 10, 0.1)


def test_envelope_quantile_degenerate_zero():
    q = deviation_quantile_from_envelope(0.0, 200, 0.05)
    assert q.q == 0.0
    assert q.method == "degenerate_zero"
    # positive envelopes agree with the plain inversion
    assert (
        deviation_quantile_from_envelope(39.7, 200, 0.05).q
        == deviation_quantile(39.7, 200, 0.05).q
    )


def test_davis_kahan_radius_cases():
    r, informative = davis_kahan_radius(10.0, 20.0)
    assert r == 1.0 and informative is False
    r, informative = davis_kahan_radius(0.0, 20.0)
    assert r == 0.0 and informative is True
    with pytest.raises(NonpositiveGap):
        davis_kahan_radius(1.0, 0.0)


@pytest.mark.parametrize(
    "q, gap, error, match",
    [
        (math.nan, 1.0, ValueError, "deviation bound must be nonnegative"),
        (1.0, math.nan, NonpositiveGap, "gap certificate nan is not positive"),
    ],
)
def test_davis_kahan_refuses_nan_naming_the_parameter(q, gap, error, match):
    # a NaN q is refused as q, not as a gap that "gives radius nan"
    with pytest.raises(error, match=match):
        davis_kahan_radius(q, gap)


def test_davis_kahan_worked_instance_closed_form():
    # closed-form re-evaluation oracle at alpha = 0.05
    n, alpha = 200, 0.05
    L = math.log(2 * n / alpha)
    q_oracle = L / 3 + math.sqrt(L * L / 9 + 2 * 39.7 * L)
    r, informative = davis_kahan_radius(
        deviation_quantile(39.7, n, alpha).q, 20.0
    )
    assert abs(r - 2 * q_oracle / 20.0) < 1e-12
    assert informative is False  # expected vacuous at this noise level


def test_adjacency_deviation_matches_opnorm(rng, sbm200):
    from graphcert import sample_adjacency

    A = sample_adjacency(sbm200, 5)
    d = symmetric_operator_norm(A.A - sbm200.P)
    oracle = np.linalg.norm(A.A - sbm200.P, 2)
    assert abs(d - oracle) < 1e-9


def test_davis_kahan_refuses_unbounded_radius():
    # a positive but subnormal gap overflows 2 q / gap: refused like gap 0
    for q, gap in ((10.0, 1e-320), (1e10, 1e-300)):
        with pytest.raises(NonpositiveGap, match="radius"):
            davis_kahan_radius(q, gap)
    assert davis_kahan_radius(0.0, 1e-320).radius == 0.0
    assert math.isfinite(davis_kahan_radius(1.0, 1e-300).radius)

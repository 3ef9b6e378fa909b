"""Deviation quantiles for the observed adjacency operator.

The noise level of a single observed graph is controlled through the
variance proxy v(P) = max_i sum_{j != i} P_ij (1 - P_ij). An edgewise
matrix Bernstein bound (each edge contributes a centered rank-two symmetric
summand of norm at most 1, with total variance-matrix norm v) gives

    P(||A - P|| >= t) <= 2 n exp( -(t^2 / 2) / (v + t / 3) ).

Inverting the tail at level alpha yields the fully explicit quantile

    q = L/3 + sqrt(L^2/9 + 2 v L),   L = log(2 n / alpha),

the exact positive root of t^2/2 = (v + t/3) L. No unspecified absolute
constants survive: validity is provable and the (real) conservatism is
surfaced downstream by the informativeness flag on radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadLevel, NonpositiveGap, QuantileOverflow

__all__ = [
    "variance_proxy",
    "require_level",
    "DeviationQuantile",
    "deviation_quantile",
    "deviation_quantile_from_envelope",
    "DavisKahanRadius",
    "davis_kahan_radius",
]


def variance_proxy(P: np.ndarray) -> float:
    """Exact Bernstein variance proxy max_i sum_{j != i} P_ij (1 - P_ij)."""
    P = np.asarray(P, dtype=float)
    var = P * (1.0 - P)
    np.fill_diagonal(var, 0.0)
    return float(np.max(var.sum(axis=1)))


@dataclass(frozen=True)
class DeviationQuantile:
    """An explicit level-alpha upper quantile for ||A - P||."""

    q: float
    alpha: float
    v_bound: float
    n: int
    method: str = "bernstein_explicit"


def require_level(alpha: float) -> None:
    """Refuse a level alpha outside (0, 1), NaN too, with :class:`BadLevel`."""
    if not 0.0 < alpha < 1.0:
        raise BadLevel(f"alpha = {alpha} must lie in (0, 1)")


def deviation_quantile(v_bound: float, n: int, alpha: float) -> DeviationQuantile:
    """Exact inversion of the dimension-aware Bernstein tail.

    Monotone: nondecreasing in v_bound, nonincreasing in alpha. At
    v_bound = 0 the linear term survives and q = (2/3) log(2n/alpha). A
    negative or NaN v_bound is refused with ``ValueError``, and a quantile
    that overflows with :class:`QuantileOverflow`.
    """
    require_level(alpha)
    if not v_bound >= 0:  # NaN too
        raise ValueError("v_bound must be nonnegative")
    if n < 2:
        raise ValueError("n must be at least 2")
    L = math.log(2.0 * n / alpha)
    q = L / 3.0 + math.sqrt(L * L / 9.0 + 2.0 * v_bound * L)
    if not math.isfinite(q):
        raise QuantileOverflow(
            f"deviation quantile overflows at v_bound = {v_bound!r}, alpha = {alpha!r}"
        )
    return DeviationQuantile(q=q, alpha=alpha, v_bound=float(v_bound), n=int(n))


def deviation_quantile_from_envelope(
    d_max: float, n: int, alpha: float
) -> DeviationQuantile:
    """Quantile from a declared degree envelope, v(P) <= d_max.

    d_max = 0 forces P = 0, so the deviation is 0 almost surely and the
    quantile is exactly 0 rather than the Bernstein linear term. A negative
    or NaN d_max is refused with ``ValueError``.
    """
    if not d_max >= 0:  # NaN too
        raise ValueError("d_max must be nonnegative")
    if d_max == 0.0:
        require_level(alpha)
        return DeviationQuantile(
            q=0.0, alpha=alpha, v_bound=0.0, n=int(n), method="degenerate_zero"
        )
    return deviation_quantile(d_max, n, alpha)


class DavisKahanRadius(NamedTuple):
    radius: float
    informative: bool  # radius < 1; a Grassmann radius >= 1 is vacuous


def davis_kahan_radius(q: float, gap: float) -> DavisKahanRadius:
    """Deterministic projector radius 2 q / gap with vacuity flag.

    A missing or nonpositive gap certificate cannot produce a radius; that
    is the "no certificate" branch, signalled, never papered over. A gap so
    small that 2 q / gap overflows is refused the same way, and so is an
    infinite one, which would give radius 0 flagged informative.
    """
    if not 0 <= q < math.inf:  # NaN too
        raise ValueError("deviation bound must be nonnegative and finite")
    if gap is None or not 0 < gap < math.inf:  # NaN too
        raise NonpositiveGap(f"gap certificate {gap} is not positive and finite")
    r = 2.0 * q / gap
    if not math.isfinite(r):
        raise NonpositiveGap(f"gap certificate {gap!r} gives radius 2q/gap = {r!r}")
    return DavisKahanRadius(radius=r, informative=bool(r < 1.0))


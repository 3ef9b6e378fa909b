"""Propagation of certified regions into downstream guarantees.

Covers fairness-constrained logistic post-processing under a certified
score band and the threshold graphs of embedding rows around a filtration
sandwich. All bounds are the deterministic inequalities behind the
guarantees; the probability came earlier, from the region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGroup, InsufficientTolerance, NonFiniteRows, ShapeMismatch
from .models import require_unit_interval

__all__ = [
    "FairnessProblem",
    "logistic_decisions",
    "parity_gap",
    "quadratic_loss",
    "fair_optimize",
    "band_tolerance",
    "feasibility_transfer_check",
    "threshold_snapshots",
]


# ---------------------------------------------------------------------------
# fairness-constrained post-processing

@dataclass(frozen=True)
class FairnessProblem:
    """Scores, targets, binary groups, temperature, parity tolerance."""

    x: np.ndarray       # score vector
    y: np.ndarray       # targets in [0, 1]^n
    s: np.ndarray       # binary group attribute, both groups nonempty
    tau: float          # temperature > 0
    epsilon: float      # parity tolerance in [0, 1]

    def __post_init__(self):
        x = np.array(self.x, dtype=float, copy=True)
        y = np.array(self.y, dtype=float, copy=True)
        s = np.array(self.s, dtype=np.int64, copy=True)
        if not (x.shape == y.shape == s.shape) or x.ndim != 1:
            raise ShapeMismatch("x, y, s must be 1-d of equal length")
        if not np.all((s == 0) | (s == 1)):
            raise ValueError("group attribute must be binary 0/1")
        if not (s == 0).any() or not (s == 1).any():
            raise EmptyGroup("both groups must be nonempty")
        if not np.all(np.isfinite(x)):
            raise NonFiniteRows("the scores hold a NaN or an infinity")
        require_unit_interval("targets", y)
        if not self.tau > 0:  # NaN too
            raise ValueError("temperature must be positive")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("parity tolerance must lie in [0, 1]")
        for name, arr in (("x", x), ("y", y), ("s", s)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def logistic_decisions(x, s, tau: float, theta) -> np.ndarray:
    """Group-thresholded soft decisions sigma((x_i - theta_{s_i}) / tau); a
    temperature that is not positive and a NaN threshold are refused."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (2,):
        raise ShapeMismatch("theta must be a pair of group thresholds")
    if not tau > 0:  # NaN too
        raise ValueError(f"temperature must be positive, got {tau!r}")
    if np.isnan(theta).any():
        raise ValueError(f"thresholds hold a NaN: {theta.tolist()!r}")
    shift = theta[np.asarray(s, dtype=np.int64)]
    return _sigmoid((np.asarray(x, dtype=float) - shift) / tau)


def parity_gap(decisions: np.ndarray, s: np.ndarray) -> float:
    """Absolute difference of group-mean decisions."""
    decisions = np.asarray(decisions, dtype=float)
    s = np.asarray(s)
    m0 = decisions[s == 0]
    m1 = decisions[s == 1]
    if m0.size == 0 or m1.size == 0:
        raise EmptyGroup("both groups must be nonempty")
    return float(abs(m0.mean() - m1.mean()))


def quadratic_loss(decisions: np.ndarray, y: np.ndarray) -> float:
    decisions = np.asarray(decisions, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.mean((decisions - y) ** 2))


def _grid_decisions(x: np.ndarray, y: np.ndarray, grid: np.ndarray, tau: float):
    """One group's decision mean and summed squared error, one row per
    threshold of the grid."""
    D = _sigmoid((x[None, :] - grid[:, None]) / tau)
    return D.mean(axis=1), ((D - y[None, :]) ** 2).sum(axis=1)


def fair_optimize(
    problem: FairnessProblem, effective_epsilon: float
) -> np.ndarray:
    """Best feasible thresholds by deterministic coarse-to-fine grid search.

    Minimizes the quadratic surrogate over theta in R^2 subject to
    parity_gap <= effective_epsilon, via 3 refinement stages of a 101-point
    per-axis grid on [min x - 10 tau, max x + 10 tau]^2. Each stage
    evaluates its 101 x 101 grid as arrays and keeps the lexicographically
    least (violation, loss, theta0, theta1), the violation being
    max(gap - tolerance, 0): feasibility is enforced exactly at evaluated
    points, and a feasible point of least loss wins whenever there is one.
    Feasibility is guaranteed by the extreme-threshold witness (all
    decisions pushed to 0); if rounding leaves no exactly feasible grid
    point (possible only for tolerances below the sigmoid tail floor, about
    5e-5), the least-violation point is returned. A NaN or negative
    tolerance is refused.
    """
    if not effective_epsilon >= 0:  # NaN too
        raise ValueError(f"effective epsilon must be nonnegative, got {effective_epsilon!r}")
    x, y, s, tau = problem.x, problem.y, problem.s, problem.tau
    lo = float(x.min() - 10.0 * tau)
    hi = float(x.max() + 10.0 * tau)
    if not math.isfinite(hi - lo):
        raise ValueError(f"temperature {tau!r} is too large for a finite threshold grid")
    pts = 101
    best = None  # the least (violation, loss, theta0, theta1) over every stage so far
    center0 = center1 = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    for _stage in range(3):
        g0 = np.linspace(center0 - half, center0 + half, pts)
        g1 = np.linspace(center1 - half, center1 + half, pts)
        mean0, sq0 = _grid_decisions(x[s == 0], y[s == 0], g0, tau)
        mean1, sq1 = _grid_decisions(x[s == 1], y[s == 1], g1, tau)
        # 0 exactly where gap <= tolerance: gap - tolerance rounds to a
        # negative number or 0 only then
        viol = np.maximum(np.abs(mean0[:, None] - mean1[None, :]) - effective_epsilon, 0.0).ravel()
        losses = ((sq0[:, None] + sq1[None, :]) / x.size).ravel()
        t0, t1 = (t.ravel() for t in np.meshgrid(g0, g1, indexing="ij"))
        i = np.lexsort((t1, t0, losses, viol))[0]
        cand = (float(viol[i]), float(losses[i]), float(t0[i]), float(t1[i]))
        if best is None or cand < best:
            best = cand
        center0, center1 = best[2:]
        # next stage zooms to one coarse cell on each side of the incumbent
        half = (g0[1] - g0[0])
    return np.array(best[2:])


def band_tolerance(r: float, tau: float, epsilon: float) -> float:
    """The effective parity tolerance epsilon - r/tau of a score band of
    half-width r; epsilon below the slack r/tau is refused with
    :class:`InsufficientTolerance`, a NaN input with ``ValueError``."""
    if not r >= 0:  # NaN too
        raise ValueError(f"band radius must be nonnegative, got {r!r}")
    if not tau > 0:
        raise ValueError(f"temperature must be positive, got {tau!r}")
    if math.isnan(epsilon):
        raise ValueError("parity tolerance epsilon is NaN")
    slack = r / tau
    if not epsilon >= slack:  # a NaN slack too: r and tau both infinite
        raise InsufficientTolerance(f"epsilon {epsilon!r} < band slack {slack!r}")
    return epsilon - slack


def feasibility_transfer_check(
    theta,
    x_hat: np.ndarray,
    s: np.ndarray,
    r: float,
    tau: float,
    epsilon: float,
) -> bool:
    """Certified parity feasibility under an l-infinity score band.

    Passing the slackened constraint parity <= epsilon - r/tau (see
    :func:`band_tolerance`) at the observed scores certifies parity <=
    epsilon at every score vector within l-infinity distance r, because
    each decision coordinate is 1/(4 tau)-Lipschitz in its score and group
    averaging loses at most r/(2 tau) <= r/tau.
    """
    eff = band_tolerance(r, tau, epsilon)
    return parity_gap(logistic_decisions(x_hat, s, tau, theta), s) <= eff


# ---------------------------------------------------------------------------
# filtration snapshots

@dataclass(frozen=True)
class ThresholdSnapshot:
    t: float
    edges_lower: int       # |E(G_{t-2eta})|
    edges_point: int       # |E(G_t)|
    edges_upper: int       # |E(G_{t+2eta})|
    components_lower: int
    components_point: int
    components_upper: int


def threshold_snapshots(X: np.ndarray, eta: float, t_grid) -> tuple:
    """One :class:`ThresholdSnapshot` per grid threshold t.

    Reports G_{t-2eta}, G_t and G_{t+2eta} of the embedding rows X, refused
    unless 2-d and finite, and of ``eta >= 0`` (a NaN or negative eta would
    invert the sandwich); a negative (or NaN) threshold gives the empty
    graph. The n(n-1)/2 pairwise distances are computed once, condensed
    (``pdist``), and an edge count is one comparison pass over them. Rows
    whose distance overflows to infinity are refused, since such a distance
    would be counted wrong. Component counts come from the single-linkage
    merge heights (``linkage``), the weights of a minimum spanning tree:
    G_s has n - #{heights <= s} components, exactly, ties and zero
    distances included. ``scipy.cluster`` and ``scipy.spatial`` are
    imported here, so only a run with snapshots to compute loads them.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeMismatch("embedding rows must be 2-d")
    if not np.all(np.isfinite(X)):
        raise NonFiniteRows("the embedding rows hold a NaN or an infinity")
    if not eta >= 0:  # NaN too
        raise ValueError(f"eta must be nonnegative, got {eta!r}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        return ()
    from scipy.cluster.hierarchy import linkage
    from scipy.spatial.distance import pdist

    n = X.shape[0]
    d = pdist(X)
    if not np.all(np.isfinite(d)):
        raise NonFiniteRows("a distance between the embedding rows overflows to infinity")
    # linkage refuses fewer than 2 rows; its single-linkage heights ascend
    tree = linkage(d, "single")[:, 2] if n >= 2 else np.empty(0)

    def edges(s: float) -> int:
        return int(np.count_nonzero(d <= s))  # distances are >= 0: none for s < 0

    def components(s: float) -> int:
        return n - int(np.searchsorted(tree, s, side="right")) if s >= 0 else n

    snapshots = []
    for t in t_grid:
        lo, hi = t - 2.0 * eta, t + 2.0 * eta
        snapshots.append(
            ThresholdSnapshot(
                t=float(t),
                edges_lower=edges(lo),
                edges_point=edges(t),
                edges_upper=edges(hi),
                components_lower=components(lo),
                components_point=components(t),
                components_upper=components(hi),
            )
        )
    return tuple(snapshots)

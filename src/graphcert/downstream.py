"""Propagation of certified regions into downstream guarantees.

Covers the in-sample ridge risk of spectral features, fairness-constrained
logistic post-processing under a certified score band, and
threshold-filtration envelopes of embedding rows. All
bounds are the deterministic inequalities behind the guarantees; the
probability came earlier, from the region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import cdist

from .errors import EmptyGroup, InsufficientTolerance, NotSymmetric, ShapeMismatch
from .linalg import OrthonormalBasis
from .models import require_unit_interval

__all__ = [
    "ridge_risk",
    "ridge_risk_bound",
    "FairnessProblem",
    "logistic_decisions",
    "parity_gap",
    "quadratic_loss",
    "fair_optimize",
    "feasibility_transfer_check",
    "TradeoffBounds",
    "tradeoff_bounds",
    "distance_matrix",
    "threshold_snapshots",
    "FiltrationReport",
    "filtration_envelope",
]


def ridge_risk(U: OrthonormalBasis, y: np.ndarray, lam: float) -> float:
    """In-sample ridge risk (1/n) || y - (1/(1+lam)) U U^T y ||^2."""
    y = np.asarray(y, dtype=float)
    if y.shape != (U.n,):
        raise ShapeMismatch(f"y must have length {U.n}")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    fitted = (U.U @ (U.U.T @ y)) / (1.0 + lam)
    resid = y - fitted
    return float(resid @ resid) / U.n


def ridge_risk_bound(y: np.ndarray, lam: float, r: float, n: int) -> float:
    """Risk perturbation bound 2 ||y||^2 r / (n (1 + lam))."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    y = np.asarray(y, dtype=float)
    return 2.0 * float(y @ y) * r / (n * (1.0 + lam))


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
        require_unit_interval("targets", y)
        if self.tau <= 0:
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
    """Group-thresholded soft decisions sigma((x_i - theta_{s_i}) / tau)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (2,):
        raise ShapeMismatch("theta must be a pair of group thresholds")
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


def fair_optimize(
    problem: FairnessProblem, effective_epsilon: float
) -> np.ndarray:
    """Best feasible thresholds by deterministic coarse-to-fine grid search.

    Minimizes the quadratic surrogate over theta in R^2 subject to
    parity_gap <= effective_epsilon, via 3 refinement stages of a 101-point
    per-axis grid on [min x - 10 tau, max x + 10 tau]^2. Feasibility is
    enforced exactly at evaluated points; ties go to the lexicographically
    smallest theta. Feasibility is guaranteed by the extreme-threshold
    witness (all decisions pushed to 0); if rounding leaves no exactly
    feasible grid point (possible only for tolerances below the sigmoid
    tail floor, about 5e-5), the minimum-violation point is returned.
    """
    if effective_epsilon < 0:
        raise ValueError("effective epsilon must be nonnegative")
    x, y, s, tau = problem.x, problem.y, problem.s, problem.tau
    mask0 = s == 0
    mask1 = ~mask0
    lo = float(x.min() - 10.0 * tau)
    hi = float(x.max() + 10.0 * tau)
    if not math.isfinite(hi - lo):
        raise ValueError(f"temperature {tau!r} is too large for a finite threshold grid")
    pts = 101
    best = None  # (loss, theta0, theta1)
    fallback = None  # (violation, loss, theta0, theta1)
    center0, center1 = (lo + hi) / 2.0, (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    for _stage in range(3):
        g0 = np.linspace(center0 - half, center0 + half, pts)
        g1 = np.linspace(center1 - half, center1 + half, pts)
        # group-1 decisions for every candidate t1 at once
        D1 = _sigmoid((x[mask1][None, :] - g1[:, None]) / tau)
        mean1 = D1.mean(axis=1)
        sq1 = ((D1 - y[mask1][None, :]) ** 2).sum(axis=1)
        for t0 in g0:
            d0 = _sigmoid((x[mask0] - t0) / tau)
            gaps = np.abs(d0.mean() - mean1)
            losses = (((d0 - y[mask0]) ** 2).sum() + sq1) / x.size
            feasible = gaps <= effective_epsilon
            if feasible.any():
                sub = np.flatnonzero(feasible)
                i = sub[np.lexsort((g1[sub], losses[sub]))[0]]
                cand = (float(losses[i]), float(t0), float(g1[i]))
                if best is None or cand < best:
                    best = cand
            viol = np.maximum(gaps - effective_epsilon, 0.0)
            j = np.lexsort((g1, losses, viol))[0]
            fcand = (float(viol[j]), float(losses[j]), float(t0), float(g1[j]))
            if fallback is None or fcand < fallback:
                fallback = fcand
        if best is not None:
            center0, center1 = best[1], best[2]
        else:
            center0, center1 = fallback[2], fallback[3]
        # next stage zooms to one coarse cell on each side of the incumbent
        half = (g0[1] - g0[0])
    if best is not None:
        return np.array([best[1], best[2]])
    return np.array([fallback[2], fallback[3]])


def feasibility_transfer_check(
    theta,
    x_hat: np.ndarray,
    s: np.ndarray,
    r: float,
    tau: float,
    epsilon: float,
) -> bool:
    """Certified parity feasibility under an l-infinity score band.

    Passing the slackened constraint parity <= epsilon - r/tau at the
    observed scores certifies parity <= epsilon at every score vector
    within l-infinity distance r, because each decision coordinate is
    1/(4 tau)-Lipschitz in its score and group averaging loses at most
    r/(2 tau) <= r/tau.
    """
    if r < 0:
        raise ValueError("band radius must be nonnegative")
    if tau <= 0:
        raise ValueError("temperature must be positive")
    if epsilon < r / tau:
        raise InsufficientTolerance(
            f"epsilon = {epsilon} is below the band slack r/tau = {r / tau}"
        )
    d = logistic_decisions(x_hat, s, tau, theta)
    return parity_gap(d, s) <= epsilon - r / tau


class TradeoffBounds(NamedTuple):
    loss_gap: float
    bound_l2: float     # (2/sqrt(n)) ||d_fair - d_un||_2
    bound_shift: float  # Delta_theta / (2 tau)
    l2_exceeded: bool     # loss_gap > bound_l2 + 1e-12
    shift_exceeded: bool  # loss_gap > bound_shift + 1e-12, with Delta_theta != 0


def tradeoff_bounds(
    d_fair: np.ndarray,
    d_un: np.ndarray,
    y: np.ndarray,
    tau: float,
    delta_theta: float,
) -> TradeoffBounds:
    """Realized accuracy cost of fairness and its two certified bounds.

    The l2 bound follows the chain (2/n) sum |delta| <= (2/sqrt(n))
    ||delta||_2; the shift bound uses the 1/(4 tau) coordinate Lipschitz
    constant of the decisions in the threshold. Both are compared with the
    realized gap, and a bound the gap exceeds is reported, not raised. The
    shift bound only applies when the pair differs by a threshold shift of
    the stated size; ``delta_theta = 0`` opts out of its comparison.
    """
    d_fair = np.asarray(d_fair, dtype=float)
    d_un = np.asarray(d_un, dtype=float)
    y = np.asarray(y, dtype=float)
    if d_fair.shape != d_un.shape or d_fair.shape != y.shape:
        raise ShapeMismatch("decision vectors and targets must share a shape")
    if not (np.all((d_fair >= 0) & (d_fair <= 1)) and np.all((d_un >= 0) & (d_un <= 1))):
        raise ValueError("decisions must lie in [0, 1]")  # a NaN fails too
    if tau <= 0:
        raise ValueError("temperature must be positive")
    n = y.size
    loss_gap = quadratic_loss(d_fair, y) - quadratic_loss(d_un, y)
    diff = d_fair - d_un
    bound_l2 = 2.0 / math.sqrt(n) * float(np.linalg.norm(diff))
    bound_shift = abs(delta_theta) / (2.0 * tau)
    return TradeoffBounds(
        loss_gap=loss_gap,
        bound_l2=bound_l2,
        bound_shift=bound_shift,
        l2_exceeded=bool(loss_gap > bound_l2 + 1e-12),
        shift_exceeded=bool(loss_gap > bound_shift + 1e-12 and abs(delta_theta) > 0),
    )


# ---------------------------------------------------------------------------
# filtration envelopes

def distance_matrix(X: np.ndarray) -> np.ndarray:
    """Exact pairwise Euclidean distances of embedding rows."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeMismatch("X must be 2-d")
    return cdist(X, X)  # (x - y)^2 == (y - x)^2: exactly symmetric, zero diagonal


def _mst_weights(D: np.ndarray) -> np.ndarray:
    """Sorted edge weights of a minimum spanning tree of the complete graph on D.

    Dense Prim in O(n^2): every entry, zeros included, is an edge, so
    duplicate rows stay joined (a sparse MST would drop their 0 entries).
    """
    n = D.shape[0]
    if n < 2:
        return np.empty(0)
    weights = np.empty(n - 1)
    rest = np.arange(1, n)            # vertices outside the tree, in rest[:m]
    dist = D[0, 1:].copy()            # their distance to the tree
    for m in range(n - 1, 0, -1):
        j = int(np.argmin(dist[:m]))
        weights[n - 1 - m] = dist[j]
        v = rest[j]
        rest[j], dist[j] = rest[m - 1], dist[m - 1]
        np.minimum(dist[:m - 1], D[v, rest[:m - 1]], out=dist[:m - 1])
    weights.sort()
    return weights


def _within(D: np.ndarray, t: float) -> np.ndarray:
    """Pairs at distance <= t, diagonal included; a negative (or NaN)
    threshold gives the empty graph by convention."""
    return D <= t if t >= 0 else np.zeros(D.shape, dtype=bool)


def _off_diagonal(mask: np.ndarray) -> int:
    """Number of unordered pairs i < j set in a symmetric mask."""
    return (np.count_nonzero(mask) - np.count_nonzero(mask.diagonal())) // 2


@dataclass(frozen=True)
class ThresholdSnapshot:
    t: float
    lower_included: bool   # G_{t-2eta}(X) subseteq G_t(Y)
    upper_included: bool   # G_t(Y) subseteq G_{t+2eta}(X)
    edges_lower: int       # |E(G_{t-2eta}(X))|
    edges_point: int       # |E(G_t(Y))|
    edges_upper: int       # |E(G_{t+2eta}(X))|
    components_lower: int
    components_point: int
    components_upper: int


def threshold_snapshots(DX: np.ndarray, DY: np.ndarray, eta: float, t_grid) -> tuple:
    """One :class:`ThresholdSnapshot` per grid threshold t.

    Compares G_{t-2eta} and G_{t+2eta} of the distance matrix DX with G_t
    of DY; passing the same matrix twice gives the shifted snapshots of one
    embedding. Both matrices must be exactly symmetric. Component counts
    come from one minimum spanning tree per matrix: G_t has
    n - #{tree edges of weight <= t} components (single linkage), exactly,
    for any such tree, ties and zero distances included.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        return ()
    n = DX.shape[0]
    if DX.shape != (n, n) or DY.shape != (n, n):
        raise ShapeMismatch("distance matrices must be square and share a shape")
    for D in (DX, DY) if DY is not DX else (DX,):
        if not np.array_equal(D, D.T):
            raise NotSymmetric("distance matrix must be symmetric and free of NaN")
    tree_x = _mst_weights(DX)
    tree_y = tree_x if DY is DX else _mst_weights(DY)

    def components(tree: np.ndarray, t: float) -> int:
        return n - int(np.searchsorted(tree, t, side="right")) if t >= 0 else n

    snapshots = []
    for t in t_grid:
        lo, hi = t - 2.0 * eta, t + 2.0 * eta
        low, mid, high = _within(DX, lo), _within(DY, t), _within(DX, hi)
        snapshots.append(
            ThresholdSnapshot(
                t=float(t),
                lower_included=_off_diagonal(low & ~mid) == 0,
                upper_included=_off_diagonal(mid & ~high) == 0,
                edges_lower=_off_diagonal(low),
                edges_point=_off_diagonal(mid),
                edges_upper=_off_diagonal(high),
                components_lower=components(tree_x, lo),
                components_point=components(tree_y, t),
                components_upper=components(tree_x, hi),
            )
        )
    return tuple(snapshots)


@dataclass(frozen=True)
class FiltrationReport:
    eta: float          # max rowwise embedding error
    d_filt: float       # max-abs entry of D(X) - D(Y)
    inequality_ok: bool  # d_filt <= 2 eta
    snapshots: tuple    # one ThresholdSnapshot per grid threshold


def filtration_envelope(X: np.ndarray, Y: np.ndarray, t_grid) -> FiltrationReport:
    """Sandwich G_{t-2eta}(X) <= G_t(Y) <= G_{t+2eta}(X) over a threshold grid.

    eta is the max rowwise distance between the embeddings, d_filt the
    max-abs entry of the distance-matrix difference; d_filt <= 2 eta is
    verified, and both inclusions are checked at every grid threshold.
    Edge and component counts at the shifted thresholds are reported as
    demonstration functionals (no Lipschitz claim is made for them).
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape:
        raise ShapeMismatch("embeddings must share a shape")
    n = X.shape[0]
    eta = float(np.max(np.linalg.norm(X - Y, axis=1))) if n else 0.0
    DX = distance_matrix(X)
    DY = distance_matrix(Y)
    d_filt = float(np.max(np.abs(DX - DY))) if n else 0.0
    return FiltrationReport(
        eta=eta,
        d_filt=d_filt,
        inequality_ok=bool(d_filt <= 2.0 * eta + 1e-12),
        snapshots=threshold_snapshots(DX, DY, eta, t_grid),
    )

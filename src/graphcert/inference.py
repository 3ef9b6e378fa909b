"""Spine outputs: subspace regions, cluster balls, centrality bands, selection.

Every object here is certificate-gated. A subspace region needs a degree
envelope and a positive gap certificate; a cluster ball additionally needs
a separation margin; centrality bands need a Lipschitz modulus valid on a
certified domain; selection stability needs an observed margin clearing
twice the propagated noise. When a certificate is missing the operation
raises a refusal error instead of fabricating a number.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (
    DegenerateTopEigenvalue,
    DuplicateCenters,
    NonFiniteRows,
    NonpositiveGap,
    NonpositiveMargin,
    OutsideDomain,
    ShapeMismatch,
)
from .concentration import (
    DeviationQuantile,
    davis_kahan_radius,
    deviation_quantile_from_envelope,
)
from .linalg import (
    OrthonormalBasis,
    Spectrum,
    _orthogonal_procrustes,
    frobenius_subspace_bound,
    grassmann_distance,
)
from .models import Envelope

__all__ = [
    "SubspaceRegion",
    "subspace_region",
    "region_contains",
    "nearest_center_round",
    "center_separation",
    "perm_hamming_distance",
    "RoundingErrorBound",
    "rounding_error_bound",
    "cluster_hamming_radius",
    "ClusterRegion",
    "cluster_region",
    "kmeans_labels",
    "align_to_centers",
    "katz_centrality",
    "katz_domain_limit",
    "in_katz_domain",
    "katz_modulus",
    "eigenvector_modulus",
    "eigenvector_centrality",
    "CentralityBand",
    "centrality_bands",
    "TopMSelection",
    "top_m_selection",
    "StabilityCertificate",
    "stability_certificate",
]

TIE_TOLERANCE = 1e-12  # scores closer than this are reported as ties
CONTAIN_TOL = 1e-12    # float guard for membership at the boundary
KMEANS_RESTARTS = 50   # deterministic K-means restarts, one per seed row
LLOYD_ITERS = 100      # most assignments one K-means restart makes
TOP_GAP_TOL = 1e-10    # a top gap below this, relative to |lam1|, is degenerate
MAX_SETS = 10000       # admissible top-m sets listed before the list is cut


@dataclass(frozen=True)
class SubspaceRegion:
    """Grassmann ball around the observed top-k basis."""

    center: OrthonormalBasis
    radius: float
    alpha: float
    informative: bool
    quantile: DeviationQuantile

    @property
    def k(self) -> int:
        return self.center.k


def subspace_region(
    S: Spectrum, k: int, envelope: Envelope, alpha: float
) -> SubspaceRegion:
    """Confidence region for the latent top-k eigenspace.

    The center is the observed top-k basis ``S.top_k(k)`` of the observed
    graph's spectrum; the radius is the Davis-Kahan transfer 2 q / gap of
    the deviation quantile of ``envelope.d_max`` through ``envelope.gap``.
    A missing, zero or overflowing gap raises :class:`NonpositiveGap`; a
    radius is never fabricated.
    """
    if envelope.gap is None:
        raise NonpositiveGap("no gap certificate declared")
    if envelope.d_max is None:
        raise ValueError("the envelope must declare d_max")
    quant = deviation_quantile_from_envelope(envelope.d_max, S.n, alpha)
    dk = davis_kahan_radius(quant.q, envelope.gap)
    return SubspaceRegion(
        center=S.top_k(k),
        radius=dk.radius,
        alpha=alpha,
        informative=dk.informative,
        quantile=quant,
    )


def region_contains(U: OrthonormalBasis, region: SubspaceRegion) -> bool:
    """Membership test, rotation-invariant in both arguments."""
    if (U.n, U.k) != (region.center.n, region.center.k):
        raise ShapeMismatch("basis shape does not match the region center")
    return grassmann_distance(U, region.center) <= region.radius + CONTAIN_TOL


# ---------------------------------------------------------------------------
# clustering

def nearest_center_round(rows: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Assign each row to its nearest center; ties go to the lowest index."""
    rows = np.asarray(rows, dtype=float)
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[0] < 2:
        raise ValueError("need at least two centers")
    if rows.shape[1] != centers.shape[1]:
        raise ShapeMismatch("rows and centers disagree on dimension")
    for a in range(centers.shape[0]):
        for b in range(a + 1, centers.shape[0]):
            if np.array_equal(centers[a], centers[b]):
                raise DuplicateCenters(f"centers {a} and {b} coincide")
    return np.argmin(_squared_distances(rows, centers), axis=1)


def _squared_distances(rows: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(..., n, K) squared Euclidean distances from each row to each center.

    ``centers`` is (..., K, k): leading axes batch center sets, and each
    entry is the same difference, square and sum over the last axis.
    """
    return ((rows[:, None, :] - centers[..., None, :, :]) ** 2).sum(axis=-1)


def center_separation(centers) -> float:
    """Smallest Euclidean distance between two of the cluster centers."""
    centers = np.asarray(centers, dtype=float)
    return float(min(
        np.linalg.norm(a - b) for a, b in itertools.combinations(centers, 2)
    ))


def perm_hamming_distance(g, h) -> int:
    """Permutation-invariant Hamming distance between label assignments.

    The best label permutation is an optimal bipartite matching on the
    confusion matrix, exact for any number of labels.
    """
    g = np.asarray(g, dtype=np.int64)
    h = np.asarray(h, dtype=np.int64)
    if g.shape != h.shape or g.ndim != 1:
        raise ShapeMismatch("assignments must be 1-d of equal length")
    if g.size == 0:
        return 0
    if g.min() < 0 or h.min() < 0:
        raise ValueError("labels must be nonnegative integers")
    K = int(max(g.max(), h.max())) + 1
    conf = np.zeros((K, K), dtype=np.int64)
    np.add.at(conf, (g, h), 1)
    row, col = linear_sum_assignment(-conf)
    return g.size - int(conf[row, col].sum())


@dataclass(frozen=True)
class RoundingErrorBound:
    exact: bool          # eta < Delta/4: the uniform branch, zero mislabels
    hamming_bound: int   # ceil(16 n eta^2 / Delta^2), clamped at n


def _require_margin(Delta: float) -> None:
    if Delta <= 0:
        raise NonpositiveMargin(f"margin {Delta} must be positive")
    if Delta * Delta == 0.0:
        raise NonpositiveMargin(f"margin {Delta!r} underflows when squared")


def rounding_error_bound(eta: float, Delta: float, n: int) -> RoundingErrorBound:
    """Mislabel count bound for nearest-center rounding under a margin."""
    _require_margin(Delta)
    if eta < 0:
        raise ValueError("row error must be nonnegative")
    raw = 16.0 * n * eta * eta / (Delta * Delta)
    bound = int(math.ceil(min(raw, n)))  # clamp first: raw may be inf
    return RoundingErrorBound(exact=bool(eta < Delta / 4.0), hamming_bound=bound)


def kmeans_labels(rows: np.ndarray, K: int) -> np.ndarray:
    """Deterministic K-means labels: farthest-point init, fixed restarts.

    Restart r of ``KMEANS_RESTARTS`` = R seeds the first center at row
    floor(r n / R); the rest are chosen greedily farthest-first. Lloyd's
    algorithm then runs until an assignment repeats, for at most
    ``LLOYD_ITERS`` assignments, and the restart of least cost wins (the
    earliest, among costs within 1e-15). No RNG is involved, so identical
    inputs give identical labels. Rows holding a NaN or an infinity have no
    cost to rank and are refused with :class:`NonFiniteRows`.

    Each distinct Lloyd trajectory is run once. The next state depends only
    on the current labels and centers, and after an assignment the center of
    every nonempty cluster is the mean of its rows, a function of the labels
    alone. So restarts that, after the same number of assignments, agree on
    the labels and on the retained center of each empty cluster follow one
    trajectory from then on: same labels, same cost, same iterations left
    under the cap. They are merged after every assignment and only the
    survivors advance. Every distance and mean is computed with the
    arithmetic of a restart run on its own, so the labels are the same bit
    for bit.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    if K < 1 or K > n:
        raise ValueError("K must lie in [1, n]")
    if not np.all(np.isfinite(rows)):
        raise NonFiniteRows("the rows to cluster hold a NaN or an infinity")
    firsts = np.arange(KMEANS_RESTARTS) * n // KMEANS_RESTARTS
    starts, follows = np.unique(firsts, return_inverse=True)
    centers, d2 = _farthest_point_init(rows, K, starts)
    labels = d2.argmin(axis=2)
    live = np.arange(starts.size)  # trajectory ids; follows[r] is restart r's
    ended = {}  # trajectory id -> (labels, centers) where it stopped
    for it in range(LLOYD_ITERS):
        if it:
            new = np.array([_squared_distances(rows, C).argmin(axis=1) for C in centers])
            stop = (new == labels).all(axis=1)
            ended.update(zip(live[stop], zip(labels[stop], centers[stop])))
            live, labels, centers = live[~stop], new[~stop], centers[~stop]
            if not live.size:
                break
        keep, seen = [], {}
        for t, traj in enumerate(live):
            empty = np.bincount(labels[t], minlength=K) == 0
            twin = seen.setdefault(labels[t].tobytes() + centers[t][empty].tobytes(), traj)
            if twin == traj:
                keep.append(t)
            else:
                follows[follows == traj] = twin
        live, labels, centers = live[keep], labels[keep], centers[keep]
        for t in range(live.size):
            for a in range(K):
                mask = labels[t] == a
                if mask.any():
                    centers[t, a] = rows[mask].mean(axis=0)
    ended.update(zip(live, zip(labels, centers)))

    costs = {traj: float(_squared_distances(rows, C)[np.arange(n), L].sum())
             for traj, (L, C) in ended.items()}
    best, best_cost = None, np.inf
    for traj in follows:
        if costs[traj] < best_cost - 1e-15:
            best, best_cost = traj, costs[traj]
    return ended[best][0]


def _farthest_point_init(rows: np.ndarray, K: int, starts: np.ndarray):
    """Farthest-point centers grown from each start row, (S, K, k), and every
    row's squared distance to each of them, (S, n, K)."""
    chosen = np.empty((starts.size, K), dtype=np.intp)
    d2 = np.empty((starts.size, rows.shape[0], K))
    chosen[:, 0] = starts
    for j in range(K):
        if j:
            chosen[:, j] = d2[:, :, :j].min(axis=2).argmax(axis=1)
        # center j of every start as a one-center set, (S, 1, k): the kernel
        # gives (S, n, 1) and its single column is the new d2 column
        d2[:, :, j] = _squared_distances(rows, rows[chosen[:, j], None])[..., 0]
    return rows[chosen], d2


def align_to_centers(
    U: OrthonormalBasis, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate an embedding so its rows sit near declared centers, then round.

    The cluster structure of the rows is found first (deterministic
    K-means), found centers are matched to the declared ones over all label
    permutations by weighted Procrustes residual, and the resulting
    rotation is polished by alternating reassignment and re-alignment.
    Returns (Q, labels).
    """
    centers = np.asarray(centers, dtype=float)
    K, k = centers.shape
    if k != U.k:
        raise ShapeMismatch("centers dimension must match the embedding")
    rows = U.U
    init = kmeans_labels(rows, K)
    found = np.zeros((K, k))
    weights = np.zeros(K)
    for a in range(K):
        mask = init == a
        weights[a] = mask.sum()
        if mask.any():
            found[a] = rows[mask].mean(axis=0)
    best_Q, best_res = np.eye(k), np.inf
    perms = itertools.permutations(range(K)) if K <= 8 else [tuple(range(K))]
    for perm in perms:
        target = centers[list(perm)]
        Q = _orthogonal_procrustes(found.T @ (weights[:, None] * target))
        res = float((weights[:, None] * (found @ Q - target) ** 2).sum())
        if res < best_res - 1e-15:
            best_Q, best_res = Q, res
    Q = best_Q
    labels = nearest_center_round(rows @ Q, centers)
    for _ in range(50):
        target = centers[labels]
        Q_new = _orthogonal_procrustes(rows.T @ target)
        new_labels = nearest_center_round(rows @ Q_new, centers)
        if np.array_equal(new_labels, labels):
            Q = Q_new
            break
        Q, labels = Q_new, new_labels
    return Q, labels


@dataclass(frozen=True)
class ClusterRegion:
    """Permutation-invariant Hamming ball around the rounded assignment.

    The fields, in order, are the keys of a report's ``cluster`` block."""

    labels: np.ndarray
    hamming_radius: int
    alpha: float
    margin: float
    margin_provenance: str  # "declared-centers" or "declared-assumption"
    radius_route: str       # "mean_square" or "uniform_rowwise"
    vacuous: bool = field(init=False)  # the ball is all assignments

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64, copy=True)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "vacuous", self.hamming_radius >= labels.size)


def cluster_hamming_radius(
    r: float, k: int, Delta: float, n: int, c_row: Optional[float] = None
) -> tuple[int, str]:
    """Hamming radius of the cluster ball for subspace radius r, and its route.

    The mean-square route gives ceil(16 * (2 k r^2) / Delta^2), i.e.
    ceil(32 k r^2 / Delta^2). With a user-certified rowwise constant
    ``c_row`` the uniform-recovery branch is also tried (radius 0 when
    c_row * r < Delta / 4) and is reported when it is smaller than the
    unclamped mean-square radius. Radii are clamped at n, where the ball is
    all assignments and the region is vacuous; the clamp comes before the
    ceiling, since r^2 may overflow to inf.
    """
    _require_margin(Delta)
    mean_square = 16.0 * frobenius_subspace_bound(r, k) / (Delta * Delta)
    if c_row is not None:
        if c_row < 0:
            raise ValueError("c_row must be nonnegative")
        rb = rounding_error_bound(c_row * r, Delta, n)
        uniform = 0 if rb.exact else rb.hamming_bound
        # for an integer, uniform < ceil(x) iff uniform < x
        if uniform < mean_square:
            return int(uniform), "uniform_rowwise"
    return int(math.ceil(min(mean_square, n))), "mean_square"


def cluster_region(
    region: SubspaceRegion,
    Delta: float,
    centers: Optional[np.ndarray] = None,
    c_row: Optional[float] = None,
) -> ClusterRegion:
    """Clustering confidence ball propagated from a subspace region.

    The labels round the rows of the region's center, aligned to declared
    ``centers`` when given and clustered by K-means into k groups
    otherwise; the radius is :func:`cluster_hamming_radius` of the
    region's radius.
    """
    n = region.center.n
    radius, route = cluster_hamming_radius(region.radius, region.k, Delta, n, c_row)

    if centers is not None:
        centers = np.asarray(centers, dtype=float)
        _, labels = align_to_centers(region.center, centers)
        provenance = "declared-centers"
    else:
        labels = kmeans_labels(region.center.U, region.k)
        provenance = "declared-assumption"
    return ClusterRegion(
        labels=labels,
        hamming_radius=radius,
        alpha=region.alpha,
        margin=float(Delta),
        margin_provenance=provenance,
        radius_route=route,
    )


# ---------------------------------------------------------------------------
# centrality functionals

def katz_centrality(S: Spectrum, beta: float) -> np.ndarray:
    """Katz scores (I - beta M)^{-1} 1 - 1 of the matrix M = ``S.matrix``.

    The domain is spectral radius rho(M) = ``S.radius`` <= 1/(2 beta), where
    the resolvent norm is at most 2 and the map is 4*beta-Lipschitz.
    Outside the domain the call is refused; that is the Omega certificate
    failure.

    The scores are the Neumann series sum_{j >= 1} (beta M)^j 1, summed by
    matrix-vector products. M is symmetric, so each term is at most
    r = beta rho times the one before it, and the tail after a term t is at
    most ||t||_2 r / (1 - r); r <= 1/2 on the domain. The sum stops at the
    first term whose tail bound is at most machine epsilon times the norm
    of the partial sum, both in the 2-norm.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    rho = S.radius
    if not in_katz_domain(rho, beta):
        raise OutsideDomain(rho, katz_domain_limit(beta))
    tail_factor = beta * rho / (1.0 - beta * rho)
    eps = np.finfo(float).eps
    term = np.ones(S.n)
    x = np.zeros(S.n)
    while True:
        term = beta * (S.matrix @ term)
        x += term
        if np.linalg.norm(term) * tail_factor <= eps * np.linalg.norm(x):
            return x


def katz_domain_limit(beta: float) -> float:
    """The largest spectral radius 1/(2 beta) of the Katz domain."""
    return 1.0 / (2.0 * beta)


def in_katz_domain(rho: float, beta: float) -> bool:
    """rho <= 1/(2 beta) up to a relative 1e-12; False for a NaN rho."""
    return rho <= katz_domain_limit(beta) * (1.0 + 1e-12)


def katz_modulus(beta: float) -> float:
    """Lipschitz constant 4*beta, valid on {rho(M) <= 1/(2 beta)}."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    return 4.0 * beta


def eigenvector_modulus(gamma: float) -> float:
    """Lipschitz constant 2/gamma, for a top eigenvalue gap gamma."""
    return 2.0 / gamma


def eigenvector_centrality(S: Spectrum) -> tuple[np.ndarray, float]:
    """Unit top eigenvector with nonnegative ones-alignment, plus its gap.

    Requires a simple top eigenvalue: the observed gamma = lam1 - lam2 =
    ``S.gap(1)`` must exceed ``TOP_GAP_TOL`` (scaled by the spectral size),
    and gamma is returned for the perturbation modulus 2/gamma.
    """
    gamma = S.gap(1)
    lam, V = S.top(1)
    if gamma <= TOP_GAP_TOL * max(1.0, abs(lam[0])):
        raise DegenerateTopEigenvalue(
            f"top eigenvalue gap {gamma} below tolerance"
        )
    v = V[:, 0].copy()  # a read-only view of the spectrum's vectors
    s = float(v.sum())
    if s < 0:
        v = -v
    elif s == 0.0:
        a = int(np.argmax(np.abs(v)))
        if v[a] < 0:
            v = -v
    return v, gamma


@dataclass(frozen=True)
class CentralityBand:
    """Simultaneous nodewise intervals point +- half_width.

    The fields, in order, are the keys of a report's ``centrality_bands``
    block."""

    functional: str
    half_width: float
    alpha: float
    point: np.ndarray

    def __post_init__(self):
        p = np.array(self.point, dtype=float, copy=True)
        p.setflags(write=False)
        object.__setattr__(self, "point", p)
        if self.half_width < 0:
            raise ValueError("half width must be nonnegative")

    def lower(self) -> np.ndarray:
        return self.point - self.half_width

    def upper(self) -> np.ndarray:
        return self.point + self.half_width

    def contains(self, truth) -> bool:
        truth = np.asarray(truth, dtype=float)
        return bool(np.all(np.abs(truth - self.point) <= self.half_width))


def centrality_bands(
    point: np.ndarray,
    L: float,
    q: float,
    alpha: float,
    functional: str = "katz",
) -> CentralityBand:
    """Bands of half-width L*q, simultaneous over all nodes."""
    if L < 0 or q < 0:
        raise ValueError("modulus and deviation bound must be nonnegative")
    return CentralityBand(
        functional=functional,
        half_width=L * q,
        alpha=alpha,
        point=np.asarray(point, dtype=float),
    )


# ---------------------------------------------------------------------------
# top-m selection

@dataclass(frozen=True)
class TopMSelection:
    sets: tuple            # admissible top-m sets, each a sorted tuple
    num_admissible: int    # exact count (sets may be truncated)
    margin: Optional[float]  # x_(m) - x_(m+1), defined only when unique

    @property
    def unique(self) -> bool:
        return self.num_admissible == 1


def top_m_selection(x, m: int) -> TopMSelection:
    """Admissible top-m sets and the selection margin.

    A set S of size m is admissible when min_{i in S} x_i >= max_{j not in
    S} x_j. Ties at the threshold (exact float equality) make the selection
    set-valued and the margin undefined. For very large tie groups the
    enumerated list is truncated at ``MAX_SETS`` (the exact count is always
    reported).
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if not 1 <= m <= n - 1:
        raise ValueError(f"m = {m} must lie in [1, {n - 1}]")
    order = np.argsort(-x, kind="stable")
    xs = x[order]
    t = xs[m - 1]
    sure = [int(i) for i in np.flatnonzero(x > t)]
    tied = [int(i) for i in np.flatnonzero(x == t)]
    slots = m - len(sure)
    count = math.comb(len(tied), slots)
    sets = []
    for combo in itertools.combinations(tied, slots):
        sets.append(tuple(sorted(sure + list(combo))))
        if len(sets) >= MAX_SETS:
            break
    margin = float(t - xs[m]) if count == 1 else None
    return TopMSelection(sets=tuple(sets), num_admissible=count, margin=margin)


@dataclass(frozen=True)
class StabilityCertificate:
    """Sufficient condition for top-m invariance under operator noise q.

    The fields, in order, are the keys of a report's ``stability`` block."""

    m: int
    observed_margin: Optional[float]
    threshold: float          # twice the band half-width
    certified: bool
    selected_set: Optional[tuple]  # present when the top-m set is unique


def stability_certificate(x_hat, m: int, half_width: float) -> StabilityCertificate:
    """Certify top-m selection stability from the observed margin.

    Certified iff the observed top-m set is unique and its margin exceeds
    twice the score band's ``half_width``. Margins inside the tie tolerance
    are reported as ties and are never certified: near-ties are genuinely
    uncertifiable.
    """
    if half_width < 0:
        raise ValueError("band half-width must be nonnegative")
    sel = top_m_selection(x_hat, m)
    threshold = 2.0 * half_width
    certified = (
        sel.unique
        and sel.margin is not None
        and sel.margin > threshold
        and sel.margin > TIE_TOLERANCE
    )
    return StabilityCertificate(
        m=m,
        observed_margin=sel.margin,
        threshold=threshold,
        certified=bool(certified),
        selected_set=sel.sets[0] if sel.unique else None,
    )

"""Spine outputs: subspace regions, cluster balls, centrality bands, selection.

Every object here is certificate-gated. A subspace region needs a bound q
on ||A - P|| and a positive gap certificate; a cluster ball additionally needs
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

from .errors import (
    DegenerateTopEigenvalue,
    DuplicateCenters,
    NonFiniteRows,
    NonpositiveMargin,
    OutsideDomain,
    ShapeMismatch,
)
from .concentration import davis_kahan_radius, require_level
from .linalg import OrthonormalBasis, Spectrum, frobenius_subspace_bound
from .models import require_integer

__all__ = [
    "SubspaceRegion",
    "subspace_region",
    "nearest_center_round",
    "center_separation",
    "perm_hamming_distance",
    "RoundingErrorBound",
    "rounding_error_bound",
    "cluster_hamming_radius",
    "ClusterRegion",
    "cluster_region",
    "kmeans_labels",
    "katz_centrality",
    "katz_domain_limit",
    "in_katz_domain",
    "katz_modulus",
    "eigenvector_modulus",
    "eigenvector_centrality",
    "CentralityBand",
    "TopMSelection",
    "top_m_selection",
    "StabilityCertificate",
    "stability_certificate",
]

TIE_TOLERANCE = 1e-12  # scores closer than this are reported as ties
KMEANS_RESTARTS = 50   # deterministic K-means restarts, one per seed row
LLOYD_ITERS = 100      # most assignments one K-means restart makes
MAX_SETS = 10000       # admissible top-m sets listed before the list is cut


@dataclass(frozen=True)
class SubspaceRegion:
    """Grassmann ball around the observed top-k basis."""

    center: OrthonormalBasis
    radius: float
    alpha: float  # the level of the deviation bound the radius was given
    informative: bool

    def __post_init__(self):
        require_level(self.alpha)

    @property
    def k(self) -> int:
        return self.center.k


def subspace_region(
    S: Spectrum, k: int, q: float, gap: float, alpha: float
) -> SubspaceRegion:
    """Confidence region for the latent top-k eigenspace.

    The center is the observed top-k basis ``S.top_k(k)`` of the observed
    graph's spectrum; the radius is the Davis-Kahan transfer 2 q / gap
    (:func:`davis_kahan_radius`) of a level-``alpha`` bound q on ||A - P||
    through the gap certificate. A zero, infinite or overflowing gap raises
    :class:`NonpositiveGap`; a radius is never fabricated.
    """
    dk = davis_kahan_radius(q, gap)
    return SubspaceRegion(
        center=S.top_k(k), radius=dk.radius, alpha=alpha, informative=dk.informative
    )


# ---------------------------------------------------------------------------
# clustering

def nearest_center_round(rows: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Assign each row to its nearest center; ties go to the lowest index.

    A row or center holding a NaN or an infinity has no nearest center and
    is refused with :class:`NonFiniteRows`."""
    rows = np.asarray(rows, dtype=float)
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[0] < 2:
        raise ValueError("need at least two centers")
    if rows.shape[1] != centers.shape[1]:
        raise ShapeMismatch("rows and centers disagree on dimension")
    if not (np.isfinite(rows).all() and np.isfinite(centers).all()):
        raise NonFiniteRows("the rows or centers hold a NaN or an infinity")
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

    The best label permutation is a maximum-weight assignment on the K x K
    confusion matrix, found exactly for any number of labels K by Kuhn's
    Hungarian method in O(K^3) (:func:`_max_weight_assignment`).
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
    conf = np.bincount(g * K + h, minlength=K * K).reshape(K, K)
    return g.size - _max_weight_assignment(conf)


def _max_weight_assignment(W: np.ndarray) -> int:
    """Largest total weight of a perfect matching in the square integer
    matrix W (rows to columns), by the Hungarian method as shortest
    augmenting paths: row i joins through a Dijkstra scan over reduced
    costs that the int64 potentials u, v keep nonnegative, O(K^2) per row.

    Column 0 is the root of each scan, and ``col_row[j]`` is the row
    (counted from 1, 0 for none) matched to column j.
    """
    K = W.shape[0]
    cost = np.zeros((K + 1, K + 1), dtype=np.int64)
    cost[1:, 1:] = -W
    u = np.zeros(K + 1, dtype=np.int64)
    v = np.zeros(K + 1, dtype=np.int64)
    col_row = np.zeros(K + 1, dtype=np.int64)
    way = np.zeros(K + 1, dtype=np.int64)
    unreached = np.iinfo(np.int64).max
    for i in range(1, K + 1):
        col_row[0], j0 = i, 0
        minv = np.full(K + 1, unreached)
        used = np.zeros(K + 1, dtype=bool)
        while col_row[j0]:
            used[j0] = True
            i0 = col_row[j0]
            reduced = cost[i0] - u[i0] - v
            better = ~used & (reduced < minv)
            minv[better] = reduced[better]
            way[better] = j0
            j0 = int(np.argmin(np.where(used, unreached, minv)))
            delta = minv[j0]
            u[col_row[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
        while j0:  # augment along the path back to the root
            col_row[j0] = col_row[way[j0]]
            j0 = way[j0]
    return int(W[col_row[1:] - 1, np.arange(K)].sum())


@dataclass(frozen=True)
class RoundingErrorBound:
    exact: bool          # eta < Delta/4: the uniform branch, zero mislabels
    hamming_bound: int   # ceil(16 n eta^2 / Delta^2), clamped at n


def _require_margin(Delta: float) -> None:
    if not Delta > 0:  # NaN too
        raise NonpositiveMargin(f"margin {Delta} must be positive")
    if Delta * Delta == 0.0:
        raise NonpositiveMargin(f"margin {Delta!r} underflows when squared")


def _require_node_count(n: int) -> None:
    if require_integer("n", n) < 1:
        raise ValueError(f"n must be at least 1, got {n!r}")


def rounding_error_bound(eta: float, Delta: float, n: int) -> RoundingErrorBound:
    """Mislabel count bound for nearest-center rounding under a margin."""
    _require_margin(Delta)
    _require_node_count(n)
    if not eta >= 0:  # NaN too
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
            new = _squared_distances(rows, centers).argmin(axis=2)
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
        _update_means(rows, labels, centers)
    ended.update(zip(live, zip(labels, centers)))

    costs = {traj: float(_squared_distances(rows, C)[np.arange(n), L].sum())
             for traj, (L, C) in ended.items()}
    best, best_cost = None, np.inf
    for traj in follows:
        if costs[traj] < best_cost - 1e-15:
            best, best_cost = traj, costs[traj]
    return ended[best][0]


def _update_means(rows: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> None:
    """Set each nonempty cluster's center to the mean of its rows, for every
    trajectory t at once: ``labels`` (T, n), ``centers`` (T, K, k), written
    in place; an empty cluster keeps its center.

    For k >= 2 one ``bincount`` per coordinate, keyed t K + label, sums the
    rows of every cluster in index order, as ``rows[mask].mean(axis=0)``
    does along axis 0 of an (m, k) array, and the sums are divided by the
    counts as the mean divides: the same bits. A one-column mean sums
    pairwise instead, so one-column rows keep the per-cluster mean."""
    T, K, k = centers.shape
    if k == 1:
        for t in range(T):
            for a in range(K):
                mask = labels[t] == a
                if mask.any():
                    centers[t, a] = rows[mask].mean(axis=0)
        return
    key = (np.arange(T)[:, None] * K + labels).ravel()
    counts = np.bincount(key, minlength=T * K).reshape(T, K)
    filled = counts > 0
    for j in range(k):
        sums = np.bincount(key, weights=np.tile(rows[:, j], T), minlength=T * K).reshape(T, K)
        centers[filled, j] = sums[filled] / counts[filled]


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


@dataclass(frozen=True)
class ClusterRegion:
    """Permutation-invariant Hamming ball around the K-means labels.

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
    r: float, k: int, Delta: float, n: int, eta: Optional[float] = None
) -> tuple[int, str]:
    """Hamming radius of the cluster ball for subspace radius r, and its route.

    The mean-square route gives ceil(16 * (2 k r^2) / Delta^2), i.e.
    ceil(32 k r^2 / Delta^2). With a rowwise bound ``eta`` = c_row * r the
    uniform-recovery branch is also tried (radius 0 when eta < Delta / 4)
    and is reported when it is smaller than the unclamped mean-square
    radius. Radii are clamped at n, where the ball is all assignments and
    the region is vacuous; the clamp comes before the ceiling, since r^2 may
    overflow to inf.
    """
    _require_margin(Delta)
    _require_node_count(n)
    mean_square = 16.0 * frobenius_subspace_bound(r, k) / (Delta * Delta)
    if eta is not None:
        rb = rounding_error_bound(eta, Delta, n)
        uniform = 0 if rb.exact else rb.hamming_bound
        # for an integer, uniform < ceil(x) iff uniform < x
        if uniform < mean_square:
            return int(uniform), "uniform_rowwise"
    return int(math.ceil(min(mean_square, n))), "mean_square"


def cluster_region(
    region: SubspaceRegion,
    Delta: float,
    centers: Optional[np.ndarray] = None,
    eta: Optional[float] = None,
) -> ClusterRegion:
    """Clustering confidence ball propagated from a subspace region.

    The labels are the deterministic K-means labels (:func:`kmeans_labels`)
    of the rows of the region's center: K-means labels are what the
    radius's bound (Lei and Rinaldo) is stated for. Declared ``centers``
    fix the number of groups, K = len(centers), and certify the margin
    ``Delta``, which the protocol checks between them when the config is
    read; without them K = k and the margin is a declared assumption. The
    radius is :func:`cluster_hamming_radius` of the region's radius and ``eta``.
    """
    radius, route = cluster_hamming_radius(region.radius, region.k, Delta, region.center.n, eta)
    if centers is None:
        K, provenance = region.k, "declared-assumption"
    elif np.shape(centers)[1:] != (region.k,):
        raise ShapeMismatch("centers dimension must match the embedding")
    else:
        K, provenance = len(centers), "declared-centers"
    return ClusterRegion(
        labels=kmeans_labels(region.center.U, K),
        hamming_radius=radius,
        alpha=region.alpha,
        margin=float(Delta),
        margin_provenance=provenance,
        radius_route=route,
    )


# ---------------------------------------------------------------------------
# centrality functionals

def katz_centrality(S: Spectrum, beta: float) -> np.ndarray:
    """Katz scores (I - beta M)^{-1} 1 - 1 = sum_{j >= 1} (beta M)^j 1 of the
    matrix M = ``S.matrix``.

    The domain is spectral radius rho(M) = ``S.radius`` <= 1/(2 beta), where
    the resolvent norm is at most 2 and the map is 4*beta-Lipschitz.
    Outside the domain the call is refused; that is the Omega certificate
    failure. A NaN, nonpositive or infinite beta is refused.

    The scores are one read of the spectrum's reduction,
    :meth:`Spectrum.resolvent` of b = beta M 1 (beta times the row sums),
    so no "- 1" cancels; on the domain every eigenvalue of I - beta M is at
    least 1/2. A zero row of M (a node of degree 0) has no walk and scores
    exactly 0: the solve would leave it at rounding level, different from
    node to node, and top-m selection would then split ties by rounding.
    """
    if not 0 < beta < math.inf:  # NaN too
        raise ValueError("beta must be positive and finite")
    rho = S.radius
    if not in_katz_domain(rho, beta):
        raise OutsideDomain(rho, katz_domain_limit(beta))
    M = S.matrix
    b = beta * M.sum(axis=1, dtype=float)
    x = S.resolvent(beta, b)
    zero = np.flatnonzero(b == 0)  # a zero row has b_i = 0; only these rows are read
    x[zero[~M[zero].any(axis=1)]] = 0.0
    return x


def katz_domain_limit(beta: float) -> float:
    """The largest spectral radius 1/(2 beta) of the Katz domain."""
    return 1.0 / (2.0 * beta)


def in_katz_domain(rho: float, beta: float) -> bool:
    """rho <= 1/(2 beta) up to a relative 1e-12; False for a NaN rho."""
    return rho <= katz_domain_limit(beta) * (1.0 + 1e-12)


def katz_modulus(beta: float) -> float:
    """Lipschitz constant 4*beta on {rho(M) <= 1/(2 beta)}, refused unless finite."""
    if not 0 < (L := 4.0 * beta) < math.inf:  # NaN too, and beta whose 4*beta overflows
        raise ValueError("beta must be positive, with 4*beta finite")
    return L


def eigenvector_modulus(gamma: float) -> float:
    """Lipschitz constant 2/gamma for a certified top gap gamma, refused unless finite."""
    if not (gamma > 0 and 0 < (L := 2.0 / gamma) < math.inf):  # NaN too, and 2/gamma overflow
        raise ValueError("gamma must be positive and finite, with 2/gamma finite")
    return L


def eigenvector_centrality(S: Spectrum) -> np.ndarray:
    """Unit top eigenvector with nonnegative ones-alignment.

    Requires a simple top eigenvalue: the observed gap lam1 - lam2 =
    ``S.gap(1)`` must be positive, and ``Spectrum.gap`` reads a gap within
    the tie tolerance as 0. The observed gap is not a certificate: the
    perturbation modulus takes a certified gap (:func:`eigenvector_modulus`).
    """
    gap = S.gap(1)
    if gap <= 0:
        raise DegenerateTopEigenvalue(f"top eigenvalue gap {gap} is within the tie tolerance")
    _, V = S.top(1)
    v = V[:, 0].copy()  # a read-only view of the spectrum's vectors
    s = float(v.sum())
    if s < 0:
        v = -v
    elif s == 0.0:
        a = int(np.argmax(np.abs(v)))
        if v[a] < 0:
            v = -v
    return v


@dataclass(frozen=True)
class CentralityBand:
    """Simultaneous nodewise intervals point +- half_width, where half_width
    is L * q for a modulus L and a level-``alpha`` bound q on ||A - P||.

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
        if not 0 <= self.half_width < math.inf:  # NaN too
            raise ValueError("half width must be nonnegative and finite")
        require_level(self.alpha)

    def lower(self) -> np.ndarray:
        return self.point - self.half_width

    def upper(self) -> np.ndarray:
        return self.point + self.half_width

    def contains(self, truth) -> bool:
        truth = np.asarray(truth, dtype=float)
        return bool(np.all(np.abs(truth - self.point) <= self.half_width))


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
    reported). Scores holding a NaN or an infinity have no order and are
    refused with :class:`NonFiniteRows`.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise NonFiniteRows("the scores hold a NaN or an infinity")
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
    if not half_width >= 0:  # NaN too
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

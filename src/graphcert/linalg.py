"""Dense symmetric eigen-machinery for subspace inference.

Provides the one decomposition of a symmetric matrix (a :class:`Spectrum`
shared by every spectral consumer) with its canonical top-k basis, the
Grassmann (projector-norm) distance between subspaces, orthogonal
Procrustes alignment, the Weyl-type gap transfer used to certify gaps from
denoised estimates, and the rank-aware Frobenius bound that converts a
projector radius into a mean-square row bound.

All inputs are required to be symmetric to within 1e-10 in max-abs entry;
anything looser is rejected rather than silently symmetrized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KOutOfRange, NotSymmetric, ShapeMismatch

__all__ = [
    "OrthonormalBasis",
    "Spectrum",
    "eigendecompose",
    "eigenvalues",
    "grassmann_distance",
    "procrustes_align",
    "weyl_gap_certificate",
    "frobenius_subspace_bound",
    "eigengap",
    "spectral_radius",
    "symmetric_operator_norm",
    "is_symmetric",
]

_SYM_TOL = 1e-10
_ORTHO_TOL = 1e-10


def is_symmetric(M: np.ndarray) -> bool:
    """Whether M equals its transpose to within 1e-10 in max-abs entry (a NaN
    fails); the common exact case is decided without forming M - M.T."""
    if np.array_equal(M, M.T):
        return True
    return bool(np.max(np.abs(M - M.T)) <= _SYM_TOL)


def _check_symmetric(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric("expected a square matrix")
    if not is_symmetric(M):
        raise NotSymmetric("matrix is not symmetric to within 1e-10")
    return M


@dataclass(frozen=True)
class OrthonormalBasis:
    """An n x k matrix with orthonormal columns."""

    U: np.ndarray

    def __post_init__(self):
        U = np.array(self.U, dtype=float, copy=True)
        if U.ndim != 2:
            raise ShapeMismatch("basis must be 2-d")
        gram = U.T @ U
        if np.max(np.abs(gram - np.eye(U.shape[1]))) > _ORTHO_TOL:
            raise ShapeMismatch("columns are not orthonormal to within 1e-10")
        U.setflags(write=False)
        object.__setattr__(self, "U", U)

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def k(self) -> int:
        return self.U.shape[1]

    def projector(self) -> np.ndarray:
        return self.U @ self.U.T


def eigengap(eigenvalues_desc: np.ndarray, k: int) -> float:
    """gap_k = min(lam_k - lam_{k+1}, lam_{k-1} - lam_k), lam_0 = +inf."""
    w = np.asarray(eigenvalues_desc, dtype=float)
    n = w.size
    if not 1 <= k <= n - 1:
        raise KOutOfRange(f"k = {k} must lie in [1, {n - 1}]")
    below = w[k - 1] - w[k]
    above = np.inf if k == 1 else w[k - 2] - w[k - 1]
    return float(min(below, above))


def spectral_radius(eigenvalues_sorted: np.ndarray) -> float:
    """Largest absolute eigenvalue of a spectrum sorted in either order."""
    return float(max(abs(eigenvalues_sorted[0]), abs(eigenvalues_sorted[-1])))


def _canonical_columns(w_desc: np.ndarray, V: np.ndarray, k: int) -> np.ndarray:
    """Deterministic ordering and signs for the first k eigenvector columns.

    Sign: the largest-magnitude coordinate of each column is made positive
    (first index wins on magnitude ties). Order: within groups of equal
    eigenvalues, columns are sorted by that anchor index. Downstream
    distances are rotation-invariant, so the choice is observationally
    irrelevant, but reproducibility demands a rule. Only the columns up to
    the end of the tie group that crosses position k are read: groups
    further down cannot move a column into the first k.
    """
    tol = 1e-9 * max(1.0, float(np.max(np.abs(w_desc))))
    m = k
    while m < w_desc.size and w_desc[m - 1] - w_desc[m] <= tol:
        m += 1
    V = V[:, :m].copy()
    anchors = np.empty(m, dtype=np.int64)
    for j in range(m):
        col = V[:, j]
        a = int(np.argmax(np.abs(col)))
        if col[a] < 0:
            V[:, j] = -col
        anchors[j] = a
    # group nearly equal eigenvalues and sort each group by anchor index
    start = 0
    order = np.arange(m)
    for j in range(1, m + 1):
        if j == m or w_desc[j - 1] - w_desc[j] > tol:
            if j - start > 1:
                grp = order[start:j]
                order[start:j] = grp[np.argsort(anchors[grp], kind="stable")]
            start = j
    return V[:, order[:k]]


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of ``matrix`` by :func:`eigendecompose`; ``values``
    and the columns of ``vectors`` are in the ascending order of ``eigh``."""

    matrix: np.ndarray
    values: np.ndarray
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def radius(self) -> float:
        """Spectral radius, the largest absolute eigenvalue."""
        return spectral_radius(self.values)

    def gap(self, k: int) -> float:
        """The k-gap of the descending spectrum, see :func:`eigengap`."""
        return eigengap(self.values[::-1], k)

    def top_k(self, k: int) -> OrthonormalBasis:
        """Basis of the k largest eigenvalues, signs and ties fixed by
        :func:`_canonical_columns` so identical inputs give identical bytes."""
        if not 1 <= k <= self.n - 1:
            raise KOutOfRange(f"k = {k} must lie in [1, {self.n - 1}]")
        return OrthonormalBasis(
            U=_canonical_columns(self.values[::-1], self.vectors[:, ::-1], k)
        )


def eigendecompose(M: np.ndarray) -> Spectrum:
    """Decompose a symmetric matrix with the package's only ``eigh``; read-only, so shareable."""
    M = _check_symmetric(M).view()
    w, V = np.linalg.eigh(M)
    for arr in (M, w, V):
        arr.setflags(write=False)
    return Spectrum(matrix=M, values=w, vectors=V)


def eigenvalues(M: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix: the package's only ``eigvalsh``."""
    return np.linalg.eigvalsh(_check_symmetric(M))


def symmetric_operator_norm(M: np.ndarray) -> float:
    """Spectral norm of a symmetric matrix (largest absolute eigenvalue)."""
    return spectral_radius(eigenvalues(M))


def grassmann_distance(U: OrthonormalBasis, V: OrthonormalBasis) -> float:
    """Operator norm of the projector difference, in [0, 1].

    Invariant under right-multiplication of either basis by any orthogonal
    matrix, so it is a genuine distance between the spanned subspaces.
    For equal dimensions ||P_U - P_V|| = ||(I - P_U) V||, the sine of the
    largest principal angle; the n x k residual V - U (U^T V) keeps small
    angles accurate, unlike sqrt(1 - sigma_min(U^T V)^2), and never forms
    an n x n matrix.
    """
    if (U.n, U.k) != (V.n, V.k):
        raise ShapeMismatch(
            f"bases have shapes {(U.n, U.k)} vs {(V.n, V.k)}"
        )
    resid = V.U - U.U @ (U.U.T @ V.U)
    return float(min(np.linalg.norm(resid, 2), 1.0))


def procrustes_align(
    U_hat: OrthonormalBasis, U_star: OrthonormalBasis
) -> tuple[np.ndarray, OrthonormalBasis]:
    """Orthogonal Procrustes: Q minimizing ||U_hat Q - U_star||_F.

    Solved by the singular factorization of U_hat^T U_star; returns the
    optimal k x k orthogonal Q and the aligned basis U_hat Q.
    """
    if (U_hat.n, U_hat.k) != (U_star.n, U_star.k):
        raise ShapeMismatch(
            f"bases have shapes {(U_hat.n, U_hat.k)} vs {(U_star.n, U_star.k)}"
        )
    Q = _orthogonal_procrustes(U_hat.U.T @ U_star.U)
    return Q, OrthonormalBasis(U=U_hat.U @ Q)


def _orthogonal_procrustes(M: np.ndarray) -> np.ndarray:
    """The orthogonal Q maximizing tr(Q^T M): W V^T from the SVD M = W S V^T.

    With M = X^T Y it minimizes ||X Q - Y||_F over orthogonal Q.
    """
    W, _, Vt = np.linalg.svd(M)
    return W @ Vt


def weyl_gap_certificate(gap_hat: float, eps_P: float) -> float:
    """Transfer an empirical gap through a denoising error bound.

    If every eigenvalue of the denoised matrix is within eps_P of its
    population counterpart, the population k-gap is at least
    (gap_hat - 2 eps_P)_+.
    """
    if gap_hat < 0 or eps_P < 0:
        raise ValueError("gap_hat and eps_P must be nonnegative")
    return max(gap_hat - 2.0 * eps_P, 0.0)


def frobenius_subspace_bound(r: float, k: int) -> float:
    """Mean-square alignment bound: min_Q ||U_hat Q - U_star||_F^2 <= 2 k r^2.

    The projector difference of two rank-k projectors has rank at most 2k,
    so its squared Frobenius norm is at most 2k times its squared operator
    norm, and the optimal Procrustes discrepancy is dominated by the
    Frobenius projector distance. At k = 2 this is the familiar 4 r^2.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if k < 1:
        raise KOutOfRange("k must be at least 1")
    return 2.0 * k * r * r

"""Dense symmetric eigen-machinery for subspace inference.

Provides the top-k eigenspace with deterministic tie handling, the
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
    "SpectrumSummary",
    "top_k_eigens",
    "grassmann_distance",
    "procrustes_align",
    "weyl_gap_certificate",
    "frobenius_subspace_bound",
    "eigengap",
    "symmetric_operator_norm",
]

_SYM_TOL = 1e-10
_ORTHO_TOL = 1e-10


def _check_symmetric(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric("expected a square matrix")
    if np.max(np.abs(M - M.T)) > _SYM_TOL:
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


@dataclass(frozen=True)
class SpectrumSummary:
    """Descending eigenvalues with the k-gap isolating the top-k space."""

    eigenvalues: np.ndarray  # descending
    k: int

    def __post_init__(self):
        w = np.array(self.eigenvalues, dtype=float, copy=True)
        if np.any(np.diff(w) > 1e-9):
            raise ShapeMismatch("eigenvalues must be sorted descending")
        w.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        if not 1 <= self.k <= w.size - 1:
            raise KOutOfRange(f"k = {self.k} must lie in [1, {w.size - 1}]")

    @property
    def gap_k(self) -> float:
        return eigengap(self.eigenvalues, self.k)


def _canonical_columns(w_desc: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Deterministic ordering and signs for eigenvector columns.

    Sign: the largest-magnitude coordinate of each column is made positive
    (first index wins on magnitude ties). Order: within groups of equal
    eigenvalues, columns are sorted by that anchor index. Downstream
    distances are rotation-invariant, so the choice is observationally
    irrelevant, but reproducibility demands a rule.
    """
    V = V.copy()
    anchors = np.empty(V.shape[1], dtype=np.int64)
    for j in range(V.shape[1]):
        col = V[:, j]
        a = int(np.argmax(np.abs(col)))
        if col[a] < 0:
            V[:, j] = -col
        anchors[j] = a
    # group nearly equal eigenvalues and sort each group by anchor index
    scale = max(1.0, float(np.max(np.abs(w_desc))))
    tol = 1e-9 * scale
    start = 0
    order = np.arange(V.shape[1])
    for j in range(1, V.shape[1] + 1):
        if j == V.shape[1] or w_desc[j - 1] - w_desc[j] > tol:
            if j - start > 1:
                grp = order[start:j]
                order[start:j] = grp[np.argsort(anchors[grp], kind="stable")]
            start = j
    return V[:, order]


def top_k_eigens(M: np.ndarray, k: int) -> tuple[OrthonormalBasis, SpectrumSummary]:
    """Top-k eigenpairs of a symmetric matrix, deterministically normalized.

    Returns the orthonormal basis of the k largest eigenvalues and the full
    descending spectrum with its k-gap. Ties are broken by the canonical
    rule above so identical inputs give byte-identical outputs.
    """
    M = _check_symmetric(M)
    n = M.shape[0]
    if not 1 <= k <= n - 1:
        raise KOutOfRange(f"k = {k} must lie in [1, {n - 1}]")
    w, V = np.linalg.eigh(M)
    w = w[::-1]
    V = V[:, ::-1]
    V = _canonical_columns(w, V)
    return OrthonormalBasis(U=V[:, :k]), SpectrumSummary(eigenvalues=w, k=k)


def symmetric_operator_norm(M: np.ndarray) -> float:
    """Spectral norm of a symmetric matrix (largest absolute eigenvalue)."""
    M = _check_symmetric(M)
    w = np.linalg.eigvalsh(M)
    return float(max(abs(w[0]), abs(w[-1])))


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
    W, _, Vt = np.linalg.svd(U_hat.U.T @ U_star.U)
    Q = W @ Vt
    return Q, OrthonormalBasis(U=U_hat.U @ Q)


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

"""Dense symmetric eigen-machinery for subspace inference.

Provides the one spectrum of a symmetric matrix (a :class:`Spectrum`
shared by every spectral consumer, computed as a top block of eigenpairs
unless a read needs them all) with its canonical top-k basis, the
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
import scipy.linalg

from .errors import KOutOfRange, NotSymmetric, ShapeMismatch

__all__ = [
    "OrthonormalBasis",
    "Spectrum",
    "TOP_BLOCK",
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

TOP_BLOCK = 8
"""How many of the largest eigenpairs a :class:`Spectrum` computes first."""


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
        if not np.max(np.abs(gram - np.eye(U.shape[1]))) <= _ORTHO_TOL:  # NaN fails
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


def _tie_tol(w_desc: np.ndarray) -> float:
    """Adjacent eigenvalues this close are tied: 1e-9 times the largest
    magnitude among the top block's values (or 1), so the block alone fixes
    it."""
    return 1e-9 * max(1.0, float(np.max(np.abs(w_desc[:TOP_BLOCK]))))


def _tie_end(w_desc: np.ndarray, k: int, tol: float) -> int:
    """One past the last position of the tie group that crosses position k."""
    m = k
    while m < w_desc.size and w_desc[m - 1] - w_desc[m] <= tol:
        m += 1
    return m


def _canonical_columns(w_desc: np.ndarray, V: np.ndarray, k: int, tol: float) -> np.ndarray:
    """Deterministic ordering and signs for the first k eigenvector columns.

    Sign: the largest-magnitude coordinate of each column is made positive
    (first index wins on magnitude ties). Order: within groups of
    eigenvalues closer than ``tol``, columns are sorted by that anchor
    index. Downstream distances are rotation-invariant, so the choice is
    observationally irrelevant, but reproducibility demands a rule. The
    columns given must run to the end of the tie group that crosses
    position k: groups further down cannot move a column into the first k.
    """
    m = w_desc.size
    V = V.copy()
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


class Spectrum:
    """The spectrum of the symmetric ``matrix`` given to :func:`eigendecompose`,
    computed on first read and shared by every spectral consumer.

    Reads are served by the top block: the ``min(n, TOP_BLOCK)`` largest
    eigenpairs, from one LAPACK subset call (``scipy.linalg.eigh`` with
    ``subset_by_index`` and the MRRR driver ``evr``) made on the first
    read. A read the block cannot serve makes one full decomposition
    (driver ``evd``, the same as ``numpy.linalg.eigh``), which then serves
    every later read. These reads need it:

    - ``gap(k)`` and ``top(m)`` past the block (``k + 1 > TOP_BLOCK``,
      ``m > TOP_BLOCK``);
    - ``top_k(k)`` when the tie group crossing k runs to the block's end,
      so the block cannot tell where it stops;
    - ``radius`` of a matrix with a negative entry (for a nonnegative one
      it is the largest eigenvalue, by Perron-Frobenius);
    - ``values`` and ``vectors``, the whole spectrum (the USVT route);
    - any read when ``n <= TOP_BLOCK``, where the block would be all of it.

    The block size is fixed, not sized by the first read, so the reads it
    serves give the same values whatever order they come in.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self._block = None  # descending values and their vectors, the top block
        self._full = None   # ascending values and vectors, as eigh returns them

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def _full_decomposition(self) -> tuple[np.ndarray, np.ndarray]:
        if self._full is None:
            w, V = scipy.linalg.eigh(self.matrix, driver="evd")
            w.setflags(write=False)
            V.setflags(write=False)
            self._full, self._block = (w, V), None
        return self._full

    @property
    def values(self) -> np.ndarray:
        """All eigenvalues, ascending, from the full decomposition."""
        return self._full_decomposition()[0]

    @property
    def vectors(self) -> np.ndarray:
        """Unit eigenvectors as columns in the order of ``values``."""
        return self._full_decomposition()[1]

    def _pairs(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Descending values and their vectors as columns, read-only: the
        whole top block while it can serve the m largest pairs, else the
        whole full decomposition."""
        n = self.n
        if self._full is None and m <= TOP_BLOCK < n:
            if self._block is None:
                w, V = scipy.linalg.eigh(
                    self.matrix, subset_by_index=[n - TOP_BLOCK, n - 1], driver="evr"
                )
                w.setflags(write=False)
                V.setflags(write=False)
                self._block = w[::-1], V[:, ::-1]
            return self._block
        return self.values[::-1], self.vectors[:, ::-1]

    def top(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The m largest eigenvalues in descending order and their unit
        eigenvectors as columns (read-only views)."""
        w, V = self._pairs(m)
        return w[:m], V[:, :m]

    @property
    def radius(self) -> float:
        """Spectral radius, the largest absolute eigenvalue: for an entrywise
        nonnegative matrix the largest eigenvalue (Perron-Frobenius)."""
        if self.matrix.min() >= 0:
            return float(self.top(1)[0][0])
        return spectral_radius(self.values)

    def _check_k(self, k: int) -> None:
        if not 1 <= k <= self.n - 1:
            raise KOutOfRange(f"k = {k} must lie in [1, {self.n - 1}]")

    def gap(self, k: int) -> float:
        """The k-gap of the descending spectrum, see :func:`eigengap`."""
        self._check_k(k)
        return eigengap(self._pairs(k + 1)[0], k)

    def top_k(self, k: int) -> OrthonormalBasis:
        """Basis of the k largest eigenvalues, signs and ties fixed by
        :func:`_canonical_columns` so identical inputs give identical bytes."""
        self._check_k(k)
        w, V = self._pairs(k + 1)
        tol = _tie_tol(w)
        end = _tie_end(w, k, tol)
        if end == w.size < self.n:  # the tie group may run on past the block
            w, V = self._pairs(self.n)
            tol = _tie_tol(w)
            end = _tie_end(w, k, tol)
        return OrthonormalBasis(U=_canonical_columns(w[:end], V[:, :end], k, tol))


def eigendecompose(M: np.ndarray) -> Spectrum:
    """The :class:`Spectrum` of a symmetric matrix, refused beyond 1e-10
    asymmetry; the matrix is kept read-only, so the spectrum is shareable.
    Its eigensolves are the package's only eigenvector solves, made on the
    first reads as :class:`Spectrum` describes."""
    M = _check_symmetric(M).view()
    M.setflags(write=False)
    return Spectrum(M)


def eigenvalues(M: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix: the package's only
    values-only eigensolve (``scipy.linalg.eigh`` with driver ``evd``)."""
    return scipy.linalg.eigh(_check_symmetric(M), eigvals_only=True, driver="evd")


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

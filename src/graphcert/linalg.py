"""Dense symmetric eigen-machinery for subspace inference.

Provides the one spectrum of a symmetric matrix (a :class:`Spectrum`
shared by every spectral consumer, read by subset solves from one
Householder tridiagonal reduction, or for a 0/1 graph a
:class:`KrylovSpectrum`, whose top pairs and gaps are certified reads of
one Lanczos run) with its canonical top-k basis, a certified block
Rayleigh-Ritz read of an operator's top pairs, which also gives the gap of
a low-rank matrix with its diagonal zeroed (no n x n matrix), the Grassmann (projector-norm)
distance between subspaces, orthogonal Procrustes alignment, the Weyl-type
gap transfer used to certify gaps from denoised estimates, and the
rank-aware Frobenius bound that converts a projector radius into a
mean-square row bound.

All inputs are required to be symmetric to within 1e-10 in max-abs entry;
anything looser is rejected rather than silently symmetrized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemm, dgemv, dsymv, dsyrk

from .errors import KOutOfRange, NotSymmetric, ShapeMismatch

__all__ = [
    "KrylovSpectrum",
    "OrthonormalBasis",
    "Spectrum",
    "TOP_BLOCK",
    "eigendecompose",
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
"""The fewest of the largest eigenpairs a :class:`Spectrum` read computes."""

_RITZ_STEPS = 4     # block power steps a Rayleigh-Ritz gap read may take
_RITZ_TOL = 1e-12   # its error bound on the gap, relative to max(1, theta_1)

# the reads of a KrylovSpectrum
_TOP_STEPS = 60         # block steps for the k largest pairs
_TOP_TOL = 1e-11        # their Kato-Temple errors, relative to max(1, theta_1)
_TOP_ANGLE = 1e-11      # the angle within which each Ritz vector is proven
_LANCZOS_STEPS = 200    # Lanczos steps for the top pairs and lambda_{k+1}
_LANCZOS_BLOCK = 32     # Lanczos vectors allocated at a time
_BRACKET_RTOL = 5e-10   # how well every gap must be known, relative to it
_CG_STEPS = 100         # conjugate gradient steps for the resolvent
_CG_TOL = 1e-13         # its error bound, relative to the solution's norm


def is_symmetric(M: np.ndarray) -> bool:
    """Whether M equals its transpose to within 1e-10 in max-abs entry (a NaN
    fails). The common exact case is decided on M's own dtype; only the
    tolerance test forms M - M.T, in float64, so integers cannot wrap."""
    if np.array_equal(M, M.T):
        return True
    M = np.asarray(M, dtype=float)
    return bool(np.max(np.abs(M - M.T)) <= _SYM_TOL)


def _check_symmetric(M: np.ndarray) -> np.ndarray:
    """M as an array in its own dtype, refused unless real (bool, integer or
    float), square and symmetric."""
    M = np.asarray(M)
    if M.dtype.kind not in "biuf":
        raise NotSymmetric(f"expected a real matrix, got dtype {M.dtype}")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric("expected a square matrix")
    if not is_symmetric(M):
        raise NotSymmetric("matrix is not symmetric to within 1e-10")
    return M


@dataclass(frozen=True)
class OrthonormalBasis:
    """An n x k matrix with k >= 1 orthonormal columns (so finite ones)."""

    U: np.ndarray

    def __post_init__(self):
        U = np.array(self.U, dtype=float, copy=True)
        if U.ndim != 2 or U.shape[1] == 0:
            raise ShapeMismatch(f"basis must be 2-d with a column, got shape {U.shape}")
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
    magnitude among the ``TOP_BLOCK`` largest values (or 1), so the smallest
    read fixes it."""
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
    anchors = np.argmax(np.abs(V), axis=0)
    signs = np.where(V[anchors, np.arange(V.shape[1])] < 0, -1.0, 1.0)
    # group nearly equal eigenvalues and sort each group by anchor index
    groups = np.cumsum(np.concatenate(([False], w_desc[:-1] - w_desc[1:] > tol)))
    cols = np.lexsort((anchors, groups))[:k]
    return V[:, cols] * signs[cols]  # a multiply by +-1 is exact


class Spectrum:
    """The spectrum of a symmetric, read-only real ``matrix`` (one that
    :func:`eigendecompose` checked, or one checked where it was built, such
    as the int8 ``AdjacencyMatrix.A``), computed on first read and shared by
    every spectral consumer.

    The first read makes one Householder reduction of the matrix to a
    tridiagonal T (``dsytrd``), the only O(n^3) step. Every read is a subset
    solve on T (``scipy.linalg.eigh_tridiagonal``, bisection and inverse
    iteration) whose eigenvectors are mapped back through the reflectors
    (``dormqr``). Reads of the largest pairs read at least ``TOP_BLOCK`` of
    them, a fixed size rather than the first read's, so those reads give the
    same values whatever order they come in; a read that needs more (a tie
    group of :meth:`top_k`, the positive side of :meth:`beyond`) doubles it,
    afresh and uncached, so it cannot change a later read's bits.
    No read computes every eigenvector unless it asks for all of them.
    :meth:`resolvent` solves with I - beta M on the same reduction.

    ``dsytrd`` copies the matrix into its float64 work array, casting an
    integer matrix on the way, so an int8 0/1 matrix and its float64 copy
    give the same reduction, bit for bit.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self._reduced = None  # reflectors, their scales and T's diagonals
        self._top = None      # the TOP_BLOCK descending pairs read from T

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def _reduction(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(c, tau, d, e): the lower Householder reduction Q^T M Q = T, with
        diagonal d and off-diagonal e, made on first need."""
        if self._reduced is None:
            # the optimal workspace lets dsytrd run blocked: its default of n
            # is about 1.8x slower at n = 1000 and 2000
            lwork, info = scipy.linalg.lapack.dsytrd_lwork(self.n, lower=1)
            _check_lapack("dsytrd_lwork", info)
            c, d, e, tau, info = scipy.linalg.lapack.dsytrd(
                self.matrix, lower=1, lwork=int(lwork)
            )
            _check_lapack("dsytrd", info)
            self._reduced = c, tau, d, e
        return self._reduced

    def _apply_q(self, trans: str, C: np.ndarray) -> np.ndarray:
        """Q C (``trans`` "N") or Q^T C ("T") for the reduction's Q, written
        into C and returned: Q = diag(1, Q') with Q' the reflectors below
        row 0, so row 0 of C is kept and the rest multiplied by Q'."""
        c, tau, _, _ = self._reduction()
        n = self.n
        if C.shape[1] and n > 1:
            # the reflectors are c[1:, :n-1]; that slice is strided, so it
            # would be copied to an n x n temporary on each call. The
            # column-major (n, n-1) view one element into c has it as its
            # first n-1 rows, and dormqr reads no more.
            reflectors = c.reshape(-1, order="F")[1 : n * n - n + 1].reshape(n, n - 1, order="F")
            _, work, info = scipy.linalg.lapack.dormqr("L", trans, reflectors, tau, C[1:], -1)
            _check_lapack("dormqr query", info)
            C[1:], _, info = scipy.linalg.lapack.dormqr(
                "L", trans, reflectors, tau, C[1:], int(work[0])
            )
            _check_lapack("dormqr", info)
        return C

    def _reduced_pairs(self, **select) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues of T in a ``scipy.linalg.eigh_tridiagonal``
        selection and the matching unit eigenvectors of the matrix as
        columns, T's eigenvectors mapped back by Q."""
        _, _, d, e = self._reduction()
        w, Z = scipy.linalg.eigh_tridiagonal(d, e, **select)
        return w, self._apply_q("N", Z)

    def resolvent(self, beta: float, b: np.ndarray) -> np.ndarray:
        """(I - beta M)^{-1} b = Q (I - beta T)^{-1} Q^T b for a vector b:
        one symmetric positive definite tridiagonal solve (``dptsv``) between
        two reflector products. I - beta T must be positive definite, as it
        is when beta rho(M) < 1; otherwise ``dptsv`` fails and LinAlgError
        is raised."""
        _, _, d, e = self._reduction()
        y = self._apply_q("T", np.array(b, dtype=float).reshape(-1, 1))
        diag, off = 1.0 - beta * d, -beta * e
        if self.n == 1:  # dptsv's wrapper refuses an empty off-diagonal: pad with a decoupled 1
            diag, off, y = np.append(diag, 1.0), np.zeros(1), np.append(y, 0.0).reshape(2, 1)
        _, _, y, info = scipy.linalg.lapack.dptsv(diag, off, y)
        _check_lapack("dptsv", info)
        return self._apply_q("N", y[: self.n])[:, 0]

    def _pairs(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Descending values and their vectors as columns, read-only: the
        max(m, ``TOP_BLOCK``) largest pairs (all of them if fewer) read
        from T. Only the ``TOP_BLOCK`` read is kept; a larger one is read
        afresh each time, so every read is a function of the matrix and m
        alone, whatever was read before it."""
        n = self.n
        m = min(n, max(m, TOP_BLOCK))
        if m == min(n, TOP_BLOCK) and self._top is not None:
            return self._top
        w, V = self._reduced_pairs(select="i", select_range=(n - m, n - 1))
        w.setflags(write=False)
        V.setflags(write=False)
        pairs = w[::-1], V[:, ::-1]
        if m == min(n, TOP_BLOCK):
            self._top = pairs
        return pairs

    def top(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The m largest eigenvalues in descending order and their unit
        eigenvectors as columns (read-only views)."""
        w, V = self._pairs(m)
        return w[:m], V[:, :m]

    def _value(self, i: int) -> float:
        """The i-th smallest eigenvalue (from 0), read alone from T."""
        _, _, d, e = self._reduction()
        w = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(i, i))
        return float(w[0])

    def beyond(self, thr: float) -> tuple[np.ndarray, np.ndarray]:
        """The eigenvalues with ``|lambda| >= thr`` in ascending order and
        their unit eigenvectors as columns (read-only). The positive side is
        served by the top read (:meth:`_pairs`), doubled while its last value
        is at least thr; the negative side is one read of lambda_min and,
        only when lambda_min <= -thr, a read of the value range
        ``(-inf, -thr]``. ``thr = 0`` keeps every pair, read at once."""
        if not thr >= 0:  # NaN too
            raise ValueError(f"threshold must be nonnegative, got {thr!r}")
        if thr == 0:
            w, V = self._reduced_pairs()
        else:
            w, V = self._pairs(1)
            while w[-1] >= thr and w.size < self.n:
                w, V = self._pairs(min(self.n, 2 * w.size))
            m = int(np.count_nonzero(w >= thr))
            parts = [(w[:m][::-1], V[:, :m][:, ::-1])]
            if self._value(0) <= -thr:
                parts.insert(0, self._reduced_pairs(select="v", select_range=(-np.inf, -thr)))
            w, V = np.concatenate([w for w, _ in parts]), np.hstack([V for _, V in parts])
        w.setflags(write=False)
        V.setflags(write=False)
        return w, V

    @property
    def radius(self) -> float:
        """Spectral radius, the largest absolute eigenvalue: for an entrywise
        nonnegative matrix the largest eigenvalue (Perron-Frobenius), else
        the larger in magnitude of T's two extreme eigenvalues."""
        if self.matrix.min() >= 0:
            return float(self.top(1)[0][0])
        return spectral_radius(np.array([self._value(0), self._value(self.n - 1)]))

    def _check_k(self, k: int) -> None:
        if not 1 <= k <= self.n - 1:
            raise KOutOfRange(f"k = {k} must lie in [1, {self.n - 1}]")

    def gap(self, k: int) -> float:
        """The k-gap of the descending spectrum, see :func:`eigengap`; 0.0
        when it is within the tie tolerance of :meth:`top_k`, where a
        computed gap is rounding noise."""
        self._check_k(k)
        w = self._pairs(k + 1)[0]
        gap = eigengap(w, k)
        return gap if gap > _tie_tol(w) else 0.0

    def top_k(self, k: int) -> OrthonormalBasis:
        """Basis of the k largest eigenvalues, signs and ties fixed by
        :func:`_canonical_columns` so identical inputs give identical bytes."""
        self._check_k(k)
        w, V = self._pairs(k + 1)
        tol = _tie_tol(w)
        end = _tie_end(w, k, tol)
        while end == w.size < self.n:  # the tie group may run on past the pairs read
            w, V = self._pairs(min(self.n, 2 * w.size))
            tol = _tie_tol(w)
            end = _tie_end(w, k, tol)
        return OrthonormalBasis(U=_canonical_columns(w[:end], V[:, :end], k, tol))


class KrylovSpectrum(Spectrum):
    """The :class:`Spectrum` of a 0/1 adjacency ``matrix`` (symmetric, zero
    diagonal, read-only int8, as ``AdjacencyMatrix.A``) whose k largest
    pairs, the gaps beside them and the resolvent are read without the
    Householder reduction. The reads are made on one float64 copy F of the
    matrix, cast on the first read, with every product through scipy's
    BLAS, at O(n^2) a step (``dsymv`` reads F's upper triangle only):

    - one Lanczos run on x -> F x (:func:`_lanczos_top`): the k + 2 largest
      Ritz pairs (nu_i, y_i), once nu_{k+1}'s estimated error is within the
      room, half the k-th gap's bracket budget less the Cholesky's shift;
    - lambda_1..lambda_k and their vectors: the block Rayleigh-Ritz read
      :func:`_ritz_pairs` of X -> F X started at y_1..y_{k+2}, its values
      within ``_TOP_TOL`` max(1, theta_1) / 2 and its vectors within an
      angle ``_TOP_ANGLE`` of eigenvectors;
    - lambda_{k+1} from below: the (k+1)-th Ritz value of F on the k Ritz
      vectors and y_{k+1} (:func:`_interlaced_floor`, Cauchy interlacing);
      the report reads nu_{k+1} itself;
    - lambda_{k+1} from above: one Cholesky factorization of H = t I - F +
      W W^T in F's lower triangle (:func:`_cholesky_bound`), W W^T positive
      semidefinite of rank k and t = nu_{k+1} plus the room, so that its
      success proves lambda_{k+1} < t plus a stated rounding shift;
    - the intervals of lambda_1..lambda_k are certified against that upper
      bound (:func:`_ritz_errors`, Krylov-Weinstein and Kato-Temple).

    The read is accepted only when every adjacent gap among lambda_1..
    lambda_{k+1} is decided above the tie tolerance of :meth:`top_k` (twice
    1e-9 max(1, lambda_1), which bounds every |lambda_i| of a nonnegative
    matrix by Perron-Frobenius) and known within ``_BRACKET_RTOL`` of its
    value. Then :meth:`gap` and :meth:`top_k` up to k and :meth:`top` up to
    m = k are served from it, the vectors signed by
    :func:`_canonical_columns`, and :meth:`resolvent` is conjugate
    gradients on I - beta F (:func:`_cg`), F being the strict upper
    triangle the Cholesky left and a zeroed diagonal. Any other read, and
    every read after a certificate fails, is the reduction's, made after F
    is freed: at most one n x n float64 array is alive at a time. The
    Lanczos start is fixed, so the same matrix gives the same bits in every
    process.
    """

    def __init__(self, matrix: np.ndarray, k: int):
        super().__init__(matrix)
        self.k = k
        self._read = None   # (values, lambda_1's upper bound, vectors), or False once failed
        self._upper = None  # F after a certified read: the matrix in its upper triangle

    def _certified(self, m: int):
        """The certified read when it serves the m largest pairs, made on
        first need; None when m > k or the read failed."""
        if m > self.k:
            return None
        if self._read is None:
            self._read = self._certify() or False
        return self._read or None

    def _certify(self):
        n, k = self.n, self.k
        if 8 * (k + 2) > n - TOP_BLOCK:  # as wide a block as _ritz_gap refuses
            return None
        # the matrix is symmetric: its transpose is a column-major view,
        # which the cast reads in order
        F = self.matrix.T.astype(float, order="F")
        norm = max(1.0, float(dgemv(1.0, F, np.ones(n)).max()))  # bounds ||F|| for F >= 0

        def room(nu):  # half the k-th gap's budget left past the Cholesky's shift at nu_{k+1}
            t, g = float(nu[k]), _gamma(n + 1)
            shift = g / (1 - g) * (n * abs(t) + 2.0 * float(np.sum(nu[:k] - t)))  # tr(H) at t
            return (_BRACKET_RTOL * float(nu[k - 1] - t) - shift) / 2

        found = _lanczos_top(lambda x: dsymv(1.0, F, x),
                             np.random.default_rng(1).standard_normal(n), k, _LANCZOS_STEPS, room)
        if found is None:
            return None
        nu, Y = found
        read = _ritz_pairs(lambda X: dgemm(1.0, F, X), Y, k, k, None, norm,
                           _TOP_STEPS, _TOP_TOL, _TOP_ANGLE)
        if read is None:
            return None
        theta, rho, _, U = read
        lo = _interlaced_floor(F, U, Y[:, k], norm)
        # past this hi the k-th gap cannot be known within _BRACKET_RTOL
        limit = lo + _BRACKET_RTOL * float(theta[-1] - nu[k])
        hi = _cholesky_bound(F, U, theta, nu[k] + room(nu), norm, limit)  # writes F's lower half
        if hi is None:
            return None
        err = _ritz_errors(theta, rho, hi, _ritz_slack(n, k + 2, norm))
        if err is None:
            return None
        values = np.append(theta, nu[k])
        low, high = np.append(theta - err, lo), np.append(theta + err, hi)
        gap_lo, gap_hi = low[:-1] - high[1:], high[:-1] - low[1:]
        if not (np.all(gap_lo > 2.0 * 1e-9 * max(1.0, float(high[0])))
                and np.all(gap_hi - gap_lo <= _BRACKET_RTOL * gap_lo)):
            return None
        values.setflags(write=False)
        U.setflags(write=False)
        np.fill_diagonal(F, 0.0)  # the matrix's own diagonal, under the factor's
        self._upper = F
        return values, float(high[0]), U

    def top(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        read = self._certified(m)
        if read is None:
            return super().top(m)
        values, _, U = read
        return values[:m], U[:, :m]

    def gap(self, k: int) -> float:
        self._check_k(k)
        read = self._certified(k)
        if read is None:
            return super().gap(k)
        return eigengap(read[0], k)  # decided above the tie tolerance

    def top_k(self, k: int) -> OrthonormalBasis:
        self._check_k(k)
        read = self._certified(k)
        if read is None:
            return super().top_k(k)
        values, _, U = read
        return OrthonormalBasis(U=_canonical_columns(values[:k], U[:, :k], k, _tie_tol(values)))

    def resolvent(self, beta: float, b: np.ndarray) -> np.ndarray:
        """(I - beta M)^{-1} b by conjugate gradients (:func:`_cg`) on the
        upper triangle of F, when the certified read bounds lambda_1 <= l
        with 1 - beta l > 0, the least eigenvalue of I - beta M; otherwise,
        or when CG does not reach its tolerance, the reduction's solve,
        made after F is freed."""
        read = self._certified(1)
        floor = 1.0 - beta * read[1] if read is not None else 0.0
        F = self._upper
        if floor > 0 and F is not None:
            x = _cg(lambda v: v - beta * dsymv(1.0, F, v), np.array(b, dtype=float), floor)
            if x is not None:
                return x
        del F
        return super().resolvent(beta, b)

    def _reduction(self):
        self._upper = None  # F goes before the reduction's own n x n array is made
        return super()._reduction()


def _check_lapack(name: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {name} failed with info = {info}")


def _ritz_slack(n: int, r: int, norm: float) -> float:
    """(n + r + 2) sqrt(r) eps norm: the rounding of a Rayleigh-Ritz step on
    r columns of an n x n operator of norm at most ``norm``."""
    return (n + r + 2) * math.sqrt(r) * np.finfo(float).eps * norm


def _ritz_errors(
    theta: np.ndarray, rho: np.ndarray, rest: float, slack: float
) -> Optional[np.ndarray]:
    """Kato-Temple errors of descending Ritz values theta with residual
    bounds rho, given an upper bound ``rest`` on the eigenvalue below the
    last one: rho_i^2 / delta_i + slack, delta_i the distance from theta_i
    to the neighbouring intervals theta_j +- rho_j (or to rest). None unless
    the intervals are disjoint and above rest, so that each holds exactly
    one eigenvalue (Krylov-Weinstein)."""
    lo, hi = theta - rho, theta + rho
    below = np.append(hi[1:], rest)        # the interval or bound under each value
    above = np.insert(lo[:-1], 0, np.inf)  # the interval over it
    if not np.all(lo > below):
        return None
    return rho**2 / np.minimum(above - theta, theta - below) + slack


def _ritz_pairs(apply, X: np.ndarray, p: int, m: int, rest: Optional[float], norm: float,
                steps: int, tol: float, angle: float = math.inf):
    """The p largest eigenpairs of a symmetric n x n operator M (``apply``
    maps an n x r block X to M X, r >= p) by block Rayleigh-Ritz: up to
    ``steps`` block steps X <- orth(M X) on all r columns, started at X.
    Returns ``(theta, rho, err, Z)``: descending Ritz values, residual
    bounds, Kato-Temple errors (:func:`_ritz_errors`) and unit Ritz vectors
    as columns, once the first m errors are at most tol max(1, theta_1) / 2
    and the first m vectors are within ``angle`` (rho_i over the
    distance to the neighbouring values, Davis-Kahan) of eigenvectors; None
    when the steps run out first.

    ``rest`` is an upper bound on lambda_{p+1}(M). With None the (p+1)-th
    Ritz value stands in for it, which proves nothing: the caller then
    certifies the pairs with :func:`_ritz_errors` against a bound of its own.
    Rounding in the products, the Ritz values and the residuals is covered
    by a slack of (n + r + 2) sqrt(r) eps ``norm``, norm a bound on ||M||,
    added to each rho_i and each error. Every product is ``apply``'s and
    scipy's dgemm: numpy matmuls here ran on numpy's own OpenBLAS beside
    scipy's and cost about 35 ms an op at n = 1000.
    """
    slack = _ritz_slack(*X.shape, norm)
    for _ in range(steps):
        X = scipy.linalg.qr(X, mode="economic", check_finite=False)[0]
        Y = apply(X)
        H = dgemm(1.0, X, Y, trans_a=True)
        theta, G, info = scipy.linalg.lapack.dsyev((H + H.T) / 2.0)
        _check_lapack("dsyev", info)
        bound = float(theta[-p - 1]) if rest is None else rest
        theta, G = theta[::-1][:p], G[:, ::-1][:, :p]
        Z = dgemm(1.0, X, G)
        R = dgemm(1.0, Y, G) - Z * theta
        rho = np.linalg.norm(R, axis=0) / np.linalg.norm(Z, axis=0) + slack
        err = _ritz_errors(theta, rho, bound, slack)
        if err is not None and np.all(err[:m] <= tol * max(1.0, float(theta[0])) / 2):
            # (err - slack) / rho is rho over the distance to the neighbours
            if angle == math.inf or np.all((err[:m] - slack) / rho[:m] <= angle):
                return theta, rho, err, Z
        X = Y
    return None


def _ritz_gap(w: np.ndarray, V: np.ndarray, k: int) -> tuple[Optional[float], str]:
    """The k-gap, as :meth:`Spectrum.gap` reads it, of M = V diag(w) V^T -
    diag(d), d the diagonal of V diag(w) V^T (so M is that matrix with its
    diagonal zeroed), for r orthonormal columns V: the block Rayleigh-Ritz
    read :func:`_ritz_pairs` of the operator X -> V (w o (V^T X)) - d o X,
    O(n r^2) a step, with no n x n matrix and no reduction. Returns
    ``(gap, "certified")``, or ``(None, reason)`` when the read cannot
    certify it.

    p is the number of positive w. V diag(w) V^T has at most p positive
    and at most r - p negative eigenvalues, so by Weyl lambda_{p+1}(M) <=
    beta = -min d, and lambda_m(M) >= -max d for m <= n - r + p: exactly,
    for the d the operator uses. Up to ``_RITZ_STEPS`` block steps on all
    r columns (so a negative value cannot take over), started at V, give
    Ritz values theta_1 >= ... >= theta_p. The read is certified when:

    - the intervals theta_i +- rho_i are disjoint and lie above beta, and
      each of theta_1..theta_{min(k+1, p)} has Kato-Temple error at most
      tau / 2, tau = ``_RITZ_TOL`` max(1, theta_1), so a difference of two
      is within tau;
    - the min in :func:`eigengap` is decided: k < p, or k = p >= 2 and
      lambda_{k-1} - lambda_k <= lambda_k - beta;
    - the tie tolerance is provably 1e-9 max(1, lambda_1): lambda_8(M) >=
      -max d, which must be at least -max(1, lambda_1); and the gap is
      decided against it.

    The reasons: ``"wide_block"`` (8 r > n - ``TOP_BLOCK``: the read would
    cost about as much as a reduction, or leave no room for lambda_8 above
    the negative values), ``"k_beyond_positive"`` (k > p),
    ``"unconverged"`` (the intervals or the errors still fail after the
    last step) and ``"undecided"`` (the min or the tie is not decided, or
    k = p = 1, where lambda_2 is unread).
    """
    n, r = V.shape
    p = int(np.count_nonzero(w > 0))
    if 8 * r > n - TOP_BLOCK:
        return None, "wide_block"
    if k > p:
        return None, "k_beyond_positive"
    if k == p == 1:
        return None, "undecided"
    V = np.asfortranarray(V)
    d = (V * w * V).sum(axis=1)
    beta = -float(d.min())
    norm = float(np.max(np.abs(w))) + float(np.max(np.abs(d)))  # bounds ||M||
    read = _ritz_pairs(
        lambda X: dgemm(1.0, V, w[:, None] * dgemm(1.0, V, X, trans_a=True)) - d[:, None] * X,
        V, p, min(k + 1, p), beta, norm, _RITZ_STEPS, _RITZ_TOL,
    )
    if read is None:
        return None, "unconverged"
    theta, rho, err, _ = read
    tau = _RITZ_TOL * max(1.0, float(theta[0]))
    if float(d.max()) > max(1.0, float(theta[0] - rho[0])):
        return None, "undecided"
    if k < p:
        gap = eigengap(theta, k)
    else:  # k = p: the min is lambda_{k-1} - lambda_k if it is at most lambda_k - beta
        low_k = theta[k - 1] - err[k - 1]
        if theta[k - 2] + err[k - 2] - low_k > low_k - beta:
            return None, "undecided"
        gap = float(theta[k - 2] - theta[k - 1])
    tol = 1e-9 * max(1.0, float(theta[0]))
    if abs(gap - tol) <= 4.0 * tau:
        return None, "undecided"
    return (gap if gap > tol else 0.0), "certified"


def _gamma(m: int) -> float:
    """gamma_m = m u / (1 - m u), u the unit roundoff: the relative error
    bound of a sum or dot product of m terms."""
    u = np.finfo(float).eps / 2
    return m * u / (1 - m * u)


def _lanczos_top(apply, v: np.ndarray, k: int, steps: int, room):
    """The k + 2 largest Ritz pairs ``(nu, Y)`` (descending, vectors as
    columns) of a symmetric operator by Lanczos from v, reorthogonalized in
    full by classical Gram-Schmidt (twice when one pass removes over 30 % of
    the norm), once nu_{k+1}'s estimated error (beta_j s_j)^2 / (its distance
    to the nearest other nu_i) is at most ``room(nu)``, checked every 4
    steps; None when ``steps`` run out first or ``dstemr`` fails. The
    estimate proves nothing: the caller brackets the value. The vectors are
    kept in blocks of ``_LANCZOS_BLOCK`` columns, allocated as needed."""
    n, size, p = v.size, _LANCZOS_BLOCK, k + 2
    blocks, alpha, beta = [], [], []
    q, previous = v / np.linalg.norm(v), 0.0
    for j in range(steps):
        if j % size == 0:
            blocks.append(np.empty((n, size), order="F"))
        blocks[-1][:, j % size] = q
        filled = blocks[:-1] + [blocks[-1][:, : j % size + 1]]
        w = apply(q)
        alpha.append(float(q @ w))
        w -= alpha[j] * q + (beta[j - 1] if j else 0.0) * previous  # the three-term recurrence
        for _ in range(2):
            before = np.linalg.norm(w)
            w -= sum(dgemv(1.0, Q, dgemv(1.0, Q, w, trans=1)) for Q in filled)
            if np.linalg.norm(w) > 0.7 * before:
                break
        beta.append(float(np.linalg.norm(w)))
        if (j % 4 == 3 or beta[j] == 0.0) and j + 1 >= p:
            _, nu, S, info = scipy.linalg.lapack.dstemr(  # the tridiagonal's p largest pairs
                np.array(alpha), np.array(beta), 2, 0.0, 0.0, j + 2 - p, j + 1)
            if info != 0:  # the caller falls back to the reduction
                return None
            nu, S = nu[:p][::-1], S[: j + 1, :p][:, ::-1]
            if (beta[j] * S[-1, k]) ** 2 <= room(nu) * min(nu[k - 1] - nu[k], nu[k] - nu[k + 1]):
                rows = np.split(S, range(size, j + 1, size))  # S's rows for each block
                return nu, sum(dgemm(1.0, Q, R) for Q, R in zip(filled, rows))
        if beta[j] == 0.0:
            return None
        previous, q = q, w / beta[j]
    return None


def _interlaced_floor(F: np.ndarray, U: np.ndarray, y: np.ndarray, norm: float) -> float:
    """A lower bound on lambda_{k+1}(F), for k orthonormal columns U and a
    vector y: the smallest eigenvalue of B^T F B, B = [U, y] with y
    orthogonalized against U. For orthonormal B it is the (k+1)-th Ritz
    value of F on range(B), at most lambda_{k+1} (Cauchy interlacing). B is
    orthonormal to eta = (k + 1) (max |B^T B - I| + (n + 2) eps) >=
    ||B^T B - I||, which moves the value by at most 2 eta |value|
    (Ostrowski); the products and the (k + 1) x (k + 1) solve round it by
    at most (2 n + (k + 1)^2) (k + 1) eps ``norm``, norm a bound on ||F||."""
    n, k = U.shape
    y = y - dgemv(1.0, U, dgemv(1.0, U, y, trans=1))
    B = np.asfortranarray(np.column_stack([U, y / np.linalg.norm(y)]))
    G = dgemm(1.0, B, dgemm(1.0, F, B), trans_a=True)
    values, _, info = scipy.linalg.lapack.dsyev((G + G.T) / 2.0, compute_v=0)
    _check_lapack("dsyev", info)
    eps = np.finfo(float).eps
    eta = (k + 1) * (float(np.max(np.abs(dgemm(1.0, B, B, trans_a=True) - np.eye(k + 1))))
                     + (n + 2) * eps)
    slack = (2 * n + (k + 1) ** 2) * (k + 1) * eps * norm
    mu = float(values[0])
    return mu - slack - 2.0 * eta * (abs(mu) + slack)


def _cholesky_bound(F: np.ndarray, U: np.ndarray, theta: np.ndarray, t: float, norm: float,
                    limit: float) -> Optional[float]:
    """An upper bound on lambda_{k+1}(A), A the 0/1 matrix F holds, from one
    Cholesky factorization, or None. F's lower triangle and diagonal are
    overwritten; its strict upper triangle still holds A's.

    With c = 2 (theta - t) >= 0 and W = U diag(sqrt(c)), R = W W^T is
    positive semidefinite of rank at most k for any U, so by Weyl
    lambda_{k+1}(A) <= lambda_1(A - R). F becomes the lower triangle of the
    computed H = t I - A + R (``dsyrk`` and a diagonal add), which is within
    e = gamma_{k+2} (||W||_F^2 + ``norm``) + u max h_ii of H in 2-norm,
    norm >= ||A||. If ``dpotrf`` then completes, the computed factor is
    exact for H plus a perturbation of 2-norm at most s = gamma_{n+1} /
    (1 - gamma_{n+1}) tr(H) (Demmel's backward error for Cholesky; Rump,
    Verification of positive definiteness, BIT 46, 2006), so lambda_1(A -
    R) <= t + s + e. That sum, rounded up by 1 % (which also covers Rump's
    underflow term, below 1e-300 here), is returned; s is about 1.6e-8 at
    n = 2000. A bound above ``limit`` is refused before the factorization,
    which costs the most: 39-49 ms at n = 2000."""
    n, k = U.shape
    c = 2.0 * (theta - t)
    if not np.all(c >= 0):
        return None
    W = np.asfortranarray(U * np.sqrt(c))
    H = dsyrk(1.0, W, beta=-1.0, c=F, lower=1, overwrite_c=1)
    diagonal = np.arange(n)
    H[diagonal, diagonal] += t
    d = H[diagonal, diagonal]
    g = _gamma(n + 1)
    shift = (g / (1 - g) * math.fsum(d)
             + _gamma(k + 2) * (float(np.sum(W * W)) + norm)
             + np.finfo(float).eps / 2 * float(d.max()))
    hi = t + 1.01 * shift + 2 * np.finfo(float).eps * abs(t)
    if not hi <= limit:
        return None
    _, info = scipy.linalg.lapack.dpotrf(H, lower=1, clean=0, overwrite_a=1)
    return hi if info == 0 else None


def _cg(apply, b: np.ndarray, floor: float):
    """x with M x = b by conjugate gradients, for a symmetric operator M
    whose least eigenvalue is at least floor > 0, so that ||x - x*|| <=
    ||b - M x|| / floor; returned once that, for the residual recomputed
    from x, is at most ``_CG_TOL`` ||x||. The bound is exact up to the
    rounding of the recomputed residual, gamma_n (||b|| + ||M|| ||x||)
    at most. None when ``_CG_STEPS`` run out first."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    if rs == 0.0:
        return x
    for _ in range(_CG_STEPS):
        q = apply(p)
        a = rs / float(p @ q)
        x += a * p
        r -= a * q
        target = (_CG_TOL * floor * np.linalg.norm(x)) ** 2
        rs, previous = float(r @ r), rs
        if rs <= target:
            r = b - apply(x)
            rs = float(r @ r)
            if rs <= target:
                return x
        p = r + (rs / previous) * p
    return None


def eigendecompose(M: np.ndarray) -> Spectrum:
    """The :class:`Spectrum` of a symmetric matrix, refused beyond 1e-10
    asymmetry; the matrix is kept read-only, so the spectrum is shareable.
    Its tridiagonal reduction, made on the first read, serves every read
    of it.

    A bool or integer matrix is kept in its own dtype, as a read-only copy
    (an int8 graph takes 1 byte an entry, not 8): ``dsytrd`` casts it into
    its float64 work array exactly. Any other float matrix is cast to
    float64, so no consumer sums it in a lower precision."""
    M = _check_symmetric(M)
    M = np.array(M) if M.dtype.kind in "biu" else np.asarray(M, dtype=float).view()
    M.setflags(write=False)
    return Spectrum(M)


def symmetric_operator_norm(M: np.ndarray) -> float:
    """Spectral norm of a symmetric matrix, its largest absolute eigenvalue:
    the :attr:`Spectrum.radius` read of its one Householder reduction. A
    NaN or an infinity is refused with ``ValueError``."""
    return eigendecompose(M).radius


def grassmann_distance(U: OrthonormalBasis, V: OrthonormalBasis) -> float:
    """Operator norm of the projector difference, in [0, 1].

    Invariant under right-multiplication of either basis by any orthogonal
    matrix, so it is a genuine distance between the spanned subspaces.
    For equal dimensions ||P_U - P_V|| = ||(I - P_U) V||, the sine of the
    largest principal angle; the n x k residual V - U (U^T V) keeps small
    angles accurate, unlike sqrt(1 - sigma_min(U^T V)^2), and never forms
    an n x n matrix. Its 2-norm is its largest singular value, from
    scipy's ``dgesdd``, unchecked for finiteness: both bases are checked.
    """
    if (U.n, U.k) != (V.n, V.k):
        raise ShapeMismatch(
            f"bases have shapes {(U.n, U.k)} vs {(V.n, V.k)}"
        )
    resid = V.U - U.U @ (U.U.T @ V.U)
    return float(min(scipy.linalg.svdvals(resid, check_finite=False)[0], 1.0))


def procrustes_align(
    U_hat: OrthonormalBasis, U_star: OrthonormalBasis
) -> tuple[np.ndarray, OrthonormalBasis]:
    """Orthogonal Procrustes: Q minimizing ||U_hat Q - U_star||_F.

    Solved by the singular factorization of U_hat^T U_star (scipy's
    ``dgesdd``, unchecked for finiteness: both bases are checked); returns
    the optimal k x k orthogonal Q and the aligned basis U_hat Q.
    """
    if (U_hat.n, U_hat.k) != (U_star.n, U_star.k):
        raise ShapeMismatch(
            f"bases have shapes {(U_hat.n, U_hat.k)} vs {(U_star.n, U_star.k)}"
        )
    W, _, Vt = scipy.linalg.svd(U_hat.U.T @ U_star.U, check_finite=False)
    Q = W @ Vt
    return Q, OrthonormalBasis(U=U_hat.U @ Q)


def weyl_gap_certificate(gap_hat: float, eps_P: float) -> float:
    """Transfer an empirical gap through a denoising error bound.

    If every eigenvalue of the denoised matrix is within eps_P of its
    population counterpart, the population k-gap is at least
    (gap_hat - 2 eps_P)_+. A NaN or infinite input is refused: an infinite
    gap_hat would certify an infinite gap.
    """
    if not (0 <= gap_hat < np.inf and 0 <= eps_P < np.inf):  # NaN too
        raise ValueError("gap_hat and eps_P must be nonnegative and finite")
    return max(gap_hat - 2.0 * eps_P, 0.0)


def frobenius_subspace_bound(r: float, k: int) -> float:
    """Mean-square alignment bound: min_Q ||U_hat Q - U_star||_F^2 <= 2 k r^2.

    The projector difference of two rank-k projectors has rank at most 2k,
    so its squared Frobenius norm is at most 2k times its squared operator
    norm, and the optimal Procrustes discrepancy is dominated by the
    Frobenius projector distance. At k = 2 this is the familiar 4 r^2.
    """
    if not r >= 0:  # NaN too
        raise ValueError("radius must be nonnegative")
    if k < 1:
        raise KOutOfRange("k must be at least 1")
    return 2.0 * k * r * r

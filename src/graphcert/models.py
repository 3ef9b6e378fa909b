"""Graph models: edge-probability matrices and exact adjacency sampling.

Three generative specs are supported (SBM, degree-corrected SBM, and
(generalized) random dot product graphs). A spec is materialized into a
:class:`ProbabilityModel` holding the full symmetric matrix ``P`` of edge
probabilities with zero diagonal; an observed graph is one
:class:`AdjacencyMatrix` sampled edge-by-edge from independent Bernoullis.

Everything here is dense, immutable after construction, and deterministic
given a seed. Out-of-range probabilities are rejected, never clipped:
clipping would silently change the model being certified.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import MalformedMembership, OddN, OutOfRangeProbability, ShapeMismatch
from .linalg import is_symmetric

__all__ = [
    "SBMSpec",
    "DCSBMSpec",
    "RDPGSpec",
    "Envelope",
    "ProbabilityModel",
    "AdjacencyMatrix",
    "build_probability_matrix",
    "sample_adjacency",
    "two_block_spectrum",
    "expected_degree_bound",
    "two_block_sbm",
    "TwoBlockSpectrum",
    "require_finite",
    "require_integer",
    "real_tuple",
    "require_unit_interval",
]


def _is_real(value) -> bool:
    """A real number; a bool is not one, though Python counts it as an int."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require_finite(**declared) -> None:
    """Reject NaN, +-inf and non-numbers in declared values; None means not declared.

    A non-finite certificate would pass a gate and turn into a NaN or a
    zero radius, so it is refused as invalid input.
    """
    for name, value in declared.items():
        if value is not None and not (_is_real(value) and math.isfinite(value)):
            raise ValueError(f"declared {name} must be finite (a real number), got {value!r}")


def require_integer(name: str, value) -> int:
    """An integer, as a Python int; a bool or an integral float is refused."""
    if not (_is_real(value) and isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def real_tuple(name: str, values) -> tuple:
    """A list of real numbers, as a tuple of floats."""
    if not (np.iterable(values) and all(_is_real(v) for v in values)):
        raise ValueError(f"{name} must be a list of real numbers, got {values!r}")
    return tuple(float(v) for v in values)


def require_unit_interval(name: str, values) -> None:
    """Reject values outside [0, 1]; the check is written so NaN fails it."""
    v = np.asarray(values, dtype=float)
    if not np.all((v >= 0.0) & (v <= 1.0)):
        raise ValueError(f"{name} must lie in [0, 1]")


def _first_outside_unit_interval(P: np.ndarray, mask=True):
    """Raise OutOfRangeProbability at the first entry of P (within ``mask``)
    outside [0, 1]; the test is written so NaN fails it."""
    bad = ~((P >= 0.0) & (P <= 1.0)) & mask
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise OutOfRangeProbability(int(i), int(j), float(P[i, j]))


def _frozen(a: np.ndarray, dtype=float) -> np.ndarray:
    """Copy to an array of ``dtype`` and make it read-only."""
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def _block_labels(labels, K: int) -> np.ndarray:
    """Block labels as a read-only int array: integers in [0, K), one per node.

    A float or bool label is refused, not truncated; an empty list, which
    numpy reads as float, declares no nodes.
    """
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ShapeMismatch("labels must be 1-d")
    if arr.size and arr.dtype.kind not in "iu":
        raise MalformedMembership(f"labels must be integers, got {arr.dtype} values")
    if arr.min(initial=0) < 0 or arr.max(initial=0) >= K:
        raise MalformedMembership(f"labels must lie in [0, {K})")
    return _frozen(arr, np.int64)


def _block_matrix(B, probabilities: bool) -> np.ndarray:
    """B as a read-only symmetric (K, K) float array with nonnegative
    entries; with ``probabilities`` they must also lie in [0, 1]."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ShapeMismatch("B must be (K, K)")
    if probabilities:
        _first_outside_unit_interval(B)  # first, so NaN is reported as out of range
    if not is_symmetric(B):
        raise ShapeMismatch("B must be symmetric")
    if np.any(B < 0):
        raise MalformedMembership("B entries must be nonnegative")
    return _frozen(B)


@dataclass(frozen=True)
class SBMSpec:
    """Stochastic block model: P_ij = B[g_i, g_j] for block labels g."""

    labels: np.ndarray  # (n,) integers in [0, K)
    B: np.ndarray       # (K, K) symmetric, entries in [0, 1]

    def __post_init__(self):
        B = _block_matrix(self.B, probabilities=True)
        object.__setattr__(self, "labels", _block_labels(self.labels, B.shape[0]))
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class DCSBMSpec:
    """Degree-corrected SBM: P_ij = theta_i theta_j B[g_i, g_j]."""

    theta: np.ndarray
    labels: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        B = _block_matrix(self.B, probabilities=False)
        labels = _block_labels(self.labels, B.shape[0])
        if theta.ndim != 1 or labels.shape != theta.shape:
            raise ShapeMismatch("theta and labels must be 1-d of equal length")
        if np.any(theta <= 0):
            raise MalformedMembership("degree weights theta must be positive")
        object.__setattr__(self, "theta", _frozen(theta))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True)
class RDPGSpec:
    """(Generalized) random dot product graph: P = X I_{p,q} X^T."""

    X: np.ndarray  # (n, d) latent positions
    signature: tuple[int, int] = (0, 0)  # (p, q); p + q = d, q = 0 is plain RDPG

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2:
            raise ShapeMismatch("X must be (n, d)")
        p, q = self.signature
        sig = (require_integer("signature", p), require_integer("signature", q))
        if sig == (0, 0):
            sig = (X.shape[1], 0)
        if sig[0] < 0 or sig[1] < 0 or sig[0] + sig[1] != X.shape[1]:
            raise ShapeMismatch("signature (p, q) must satisfy p + q = d, p, q >= 0")
        object.__setattr__(self, "X", _frozen(X))
        object.__setattr__(self, "signature", sig)

    @property
    def n(self) -> int:
        return self.X.shape[0]


ModelSpec = Union[SBMSpec, DCSBMSpec, RDPGSpec]


@dataclass(frozen=True)
class Envelope:
    """Declared certificates for an otherwise unknown P."""

    d_max: Optional[float] = None  # upper bound on max expected degree
    gap: Optional[float] = None    # lower bound on gap_k(P)

    def __post_init__(self):
        require_finite(d_max=self.d_max, gap=self.gap)
        if self.d_max is not None and self.d_max < 0:
            raise ValueError("declared d_max must be nonnegative")
        if self.gap is not None and self.gap < 0:
            raise ValueError("declared gap must be nonnegative")


@dataclass(frozen=True)
class ProbabilityModel:
    """A symmetric edge-probability matrix with its generative spec."""

    n: int
    P: np.ndarray
    spec: Optional[ModelSpec] = None

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        if P.shape != (self.n, self.n):
            raise ShapeMismatch(f"P must be ({self.n}, {self.n})")
        _first_outside_unit_interval(P, ~np.eye(self.n, dtype=bool))
        if not is_symmetric(P):
            raise ShapeMismatch("P must be symmetric")
        if np.any(np.diag(P) != 0):
            raise ShapeMismatch("P must have a zero diagonal")
        object.__setattr__(self, "P", _frozen(P))


@dataclass(frozen=True)
class AdjacencyMatrix:
    """One observed symmetric 0/1 graph with zero diagonal.

    ``A`` is checked as given (0/1 entries, exact symmetry, zero diagonal)
    and then stored as a read-only int8 copy, an eighth of a float64 one.
    Cast it before handing it to a solver that picks its precision from the
    dtype (``scipy.linalg.eigh`` solves int8 input in float32) and before
    ``A @ A``, whose int8 entries wrap past 127.
    """

    n: int
    A: np.ndarray
    seed: Optional[int] = None

    def __post_init__(self):
        A = np.asarray(self.A)
        if A.shape != (self.n, self.n):
            raise ShapeMismatch(f"A must be ({self.n}, {self.n})")
        if not np.array_equal(A, A.T):
            raise ShapeMismatch("A must be symmetric")
        if np.any(np.diag(A) != 0):
            raise ShapeMismatch("A must have a zero diagonal")
        if not np.all((A == 0) | (A == 1)):  # before the cast, which would truncate 0.5
            raise ShapeMismatch("A entries must be 0/1")
        object.__setattr__(self, "A", _frozen(A, np.int8))


def build_probability_matrix(spec: ModelSpec) -> ProbabilityModel:
    """Materialize P from a generative spec.

    The diagonal is forced to zero after construction. Off-diagonal entries
    outside [0, 1] (possible for DCSBM and RDPG products) raise
    :class:`OutOfRangeProbability`; they are never clipped.
    """
    if isinstance(spec, (SBMSpec, DCSBMSpec)):
        P = spec.B[spec.labels][:, spec.labels]
        if isinstance(spec, DCSBMSpec):
            P = np.outer(spec.theta, spec.theta) * P
    elif isinstance(spec, RDPGSpec):
        p, q = spec.signature
        signs = np.concatenate([np.ones(p), -np.ones(q)])
        P = (spec.X * signs) @ spec.X.T
    else:
        raise TypeError(f"unknown model spec {type(spec).__name__}")

    n = P.shape[0]
    P = (P + P.T) / 2.0  # kill rounding asymmetry from the products
    np.fill_diagonal(P, 0.0)
    _first_outside_unit_interval(P)  # the diagonal is 0 now
    return ProbabilityModel(n=n, P=P, spec=spec)


def sample_adjacency(model: ProbabilityModel, seed: int) -> AdjacencyMatrix:
    """Sample one graph: upper-triangle entries are independent Bernoulli(P_ij).

    Deterministic given ``seed`` (PCG64 stream). Parallel callers must use
    distinct seeds.
    """
    n = model.n
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n, k=1)
    draws = rng.random(iu[0].size) < model.P[iu]
    A = np.zeros((n, n), dtype=np.int8)
    A[iu] = draws
    A += A.T
    return AdjacencyMatrix(n=n, A=A, seed=seed)


class TwoBlockSpectrum(NamedTuple):
    lam1: float
    lam2: float
    lam_rest: float
    gap2: float


def two_block_spectrum(n: int, p: float, q: float) -> TwoBlockSpectrum:
    """Closed-form spectrum of the equal-two-block SBM probability matrix.

    With m = n/2 blocks of equal size, within-block probability p and
    between-block probability q, the spectrum is

        lam1 = (m-1) p + m q        (all-ones direction)
        lam2 = (m-1) p - m q        (signed block contrast)
        -p   with multiplicity n-2  (within-block contrasts)

    and the 2-gap is min(lam1 - lam2, lam2 + p). q = p is allowed: it
    collapses lam2 onto the bulk (gap 0), the collision case.
    """
    if n % 2 != 0:
        raise OddN(f"n = {n} must be even")
    if not (0.0 <= q <= p <= 1.0):
        raise ValueError("need 0 <= q <= p <= 1")
    m = n // 2
    lam1 = (m - 1) * p + m * q
    lam2 = (m - 1) * p - m * q
    lam_rest = -p
    gap2 = min(lam1 - lam2, lam2 + p)
    return TwoBlockSpectrum(lam1, lam2, lam_rest, gap2)


def expected_degree_bound(model: ProbabilityModel) -> float:
    """Exact max expected degree, a valid d_max certificate for the model."""
    return float(np.max(model.P.sum(axis=1)))


def two_block_sbm(n: int, p: float, q: float) -> ProbabilityModel:
    """The equal-two-block worked instance; :func:`two_block_spectrum` gives
    its certificates in closed form."""
    if n % 2 != 0:
        raise OddN(f"n = {n} must be even")
    labels = np.repeat([0, 1], n // 2)
    return build_probability_matrix(SBMSpec(labels=labels, B=[[p, q], [q, p]]))

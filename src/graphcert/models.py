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
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import MalformedMembership, OddN, OutOfRangeProbability, ShapeMismatch

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
]

_SYM_TOL = 1e-10


def require_finite(**declared) -> None:
    """Reject NaN and +-inf in declared values; None means not declared.

    A non-finite certificate would pass a gate and turn into a NaN or a
    zero radius, so it is refused as invalid input.
    """
    for name, value in declared.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"declared {name} must be finite, got {value!r}")


def _frozen(a: np.ndarray) -> np.ndarray:
    """Copy to a float array and make it read-only."""
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _frozen_int(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.int64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SBMSpec:
    """Stochastic block model: P = Z B Z^T with one-hot membership Z."""

    Z: np.ndarray  # (n, K) one-hot rows
    B: np.ndarray  # (K, K) symmetric, entries in [0, 1]

    def __post_init__(self):
        Z = np.asarray(self.Z)
        B = np.asarray(self.B, dtype=float)
        if Z.ndim != 2 or B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ShapeMismatch("Z must be (n, K) and B must be (K, K)")
        if Z.shape[1] != B.shape[0]:
            raise ShapeMismatch("Z and B disagree on the number of blocks")
        if not np.all((Z == 0) | (Z == 1)) or not np.all(Z.sum(axis=1) == 1):
            raise MalformedMembership("each row of Z must have exactly one 1")
        if np.max(np.abs(B - B.T)) > _SYM_TOL:
            raise ShapeMismatch("B must be symmetric")
        if np.any(B < 0) or np.any(B > 1):
            bad = np.argwhere((B < 0) | (B > 1))[0]
            raise OutOfRangeProbability(int(bad[0]), int(bad[1]), float(B[tuple(bad)]))
        object.__setattr__(self, "Z", _frozen(Z))
        object.__setattr__(self, "B", _frozen(B))

    @classmethod
    def from_labels(cls, labels, B) -> "SBMSpec":
        labels = np.asarray(labels, dtype=np.int64)
        B = np.asarray(B, dtype=float)
        K = B.shape[0]
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= K:
            raise MalformedMembership(f"labels must lie in [0, {K})")
        Z = np.zeros((labels.size, K))
        Z[np.arange(labels.size), labels] = 1.0
        return cls(Z=Z, B=B)

    @property
    def labels(self) -> np.ndarray:
        return np.argmax(self.Z, axis=1)

    @property
    def n(self) -> int:
        return self.Z.shape[0]


@dataclass(frozen=True)
class DCSBMSpec:
    """Degree-corrected SBM: P_ij = theta_i theta_j B[g_i, g_j]."""

    theta: np.ndarray
    labels: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        labels = np.asarray(self.labels, dtype=np.int64)
        B = np.asarray(self.B, dtype=float)
        if theta.ndim != 1 or labels.shape != theta.shape:
            raise ShapeMismatch("theta and labels must be 1-d of equal length")
        if np.any(theta <= 0):
            raise MalformedMembership("degree weights theta must be positive")
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= B.shape[0]:
            raise MalformedMembership("labels must index rows of B")
        if np.max(np.abs(B - B.T)) > _SYM_TOL:
            raise ShapeMismatch("B must be symmetric")
        if np.any(B < 0):
            raise MalformedMembership("B entries must be nonnegative")
        object.__setattr__(self, "theta", _frozen(theta))
        object.__setattr__(self, "labels", _frozen_int(labels))
        object.__setattr__(self, "B", _frozen(B))

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
        sig = (int(p), int(q))
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
    """A symmetric edge-probability matrix with its generative spec.

    ``P`` is None only for envelope-only models (nothing but declared
    certificates is known about the graph law).
    """

    n: int
    P: Optional[np.ndarray]
    spec: Optional[ModelSpec] = None
    envelope: Optional[Envelope] = None

    def __post_init__(self):
        if self.P is not None:
            P = np.asarray(self.P, dtype=float)
            if P.shape != (self.n, self.n):
                raise ShapeMismatch(f"P must be ({self.n}, {self.n})")
            if np.max(np.abs(P - P.T)) > _SYM_TOL:
                raise ShapeMismatch("P must be symmetric")
            if np.any(np.diag(P) != 0):
                raise ShapeMismatch("P must have a zero diagonal")
            off = ~np.eye(self.n, dtype=bool)
            if np.any(P[off] < 0) or np.any(P[off] > 1):
                bad = np.argwhere(((P < 0) | (P > 1)) & off)[0]
                raise OutOfRangeProbability(int(bad[0]), int(bad[1]), float(P[tuple(bad)]))
            object.__setattr__(self, "P", _frozen(P))
        elif self.envelope is None:
            raise ValueError("a model needs either P or a declared envelope")


@dataclass(frozen=True)
class AdjacencyMatrix:
    """One observed symmetric 0/1 graph with zero diagonal."""

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
        if not np.all((A == 0) | (A == 1)):
            raise ShapeMismatch("A entries must be 0/1")
        object.__setattr__(self, "A", _frozen(A))


def build_probability_matrix(
    spec: ModelSpec, envelope: Optional[Envelope] = None
) -> ProbabilityModel:
    """Materialize P from a generative spec.

    The diagonal is forced to zero after construction. Off-diagonal entries
    outside [0, 1] (possible for DCSBM and RDPG products) raise
    :class:`OutOfRangeProbability`; they are never clipped.
    """
    if isinstance(spec, SBMSpec):
        P = spec.Z @ spec.B @ spec.Z.T
    elif isinstance(spec, DCSBMSpec):
        block = spec.B[np.ix_(spec.labels, spec.labels)]
        P = np.outer(spec.theta, spec.theta) * block
    elif isinstance(spec, RDPGSpec):
        p, q = spec.signature
        signs = np.concatenate([np.ones(p), -np.ones(q)])
        P = (spec.X * signs) @ spec.X.T
    else:
        raise TypeError(f"unknown model spec {type(spec).__name__}")

    n = P.shape[0]
    P = (P + P.T) / 2.0  # kill rounding asymmetry from the products
    np.fill_diagonal(P, 0.0)
    off = ~np.eye(n, dtype=bool)
    bad_mask = ((P < 0) | (P > 1)) & off
    if np.any(bad_mask):
        i, j = np.argwhere(bad_mask)[0]
        raise OutOfRangeProbability(int(i), int(j), float(P[i, j]))
    return ProbabilityModel(n=n, P=P, spec=spec, envelope=envelope)


def sample_adjacency(model: ProbabilityModel, seed: int) -> AdjacencyMatrix:
    """Sample one graph: upper-triangle entries are independent Bernoulli(P_ij).

    Deterministic given ``seed`` (PCG64 stream). Parallel callers must use
    distinct seeds.
    """
    if model.P is None:
        raise ValueError("cannot sample from an envelope-only model")
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
    """Exact max expected degree, a valid d_max certificate when P is known.

    For an envelope-only model the declared value is passed through
    unchanged.
    """
    if model.P is None:
        if model.envelope is None or model.envelope.d_max is None:
            raise ValueError("no P and no declared d_max")
        return float(model.envelope.d_max)
    return float(np.max(model.P.sum(axis=1)))


def two_block_sbm(n: int, p: float, q: float) -> ProbabilityModel:
    """The equal-two-block worked instance, envelope pre-filled exactly."""
    if n % 2 != 0:
        raise OddN(f"n = {n} must be even")
    m = n // 2
    spec = SBMSpec.from_labels(
        np.repeat([0, 1], m), np.array([[p, q], [q, p]], dtype=float)
    )
    spectrum = two_block_spectrum(n, p, q)
    env = Envelope(d_max=spectrum.lam1, gap=spectrum.gap2)
    return build_probability_matrix(spec, envelope=env)

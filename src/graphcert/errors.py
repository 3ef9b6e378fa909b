"""Semantic exception hierarchy.

Every refusable condition gets its own class so callers (and the protocol's
diagnostic report) can distinguish "your input is malformed" from "no
certificate is available for this claim". All classes derive from
:class:`GraphCertError`, itself a ``ValueError``.
"""


class GraphCertError(ValueError):
    """Base class for all graphcert errors."""


# ---------------------------------------------------------------------------
# input files

class TooManyNodes(GraphCertError):
    """The node count exceeds the dense-storage ceiling ``io.MAX_NODES``;
    checked before the adjacency matrix is allocated."""


# ---------------------------------------------------------------------------
# model construction / sampling

class OutOfRangeProbability(GraphCertError):
    """An edge probability produced by a model spec left [0, 1].

    Carries the offending index pair and value; the matrix is rejected,
    never clipped.
    """

    def __init__(self, i: int, j: int, value: float):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"P[{i},{j}] = {value!r} outside [0, 1]")


class MalformedMembership(GraphCertError):
    """Malformed block membership: a label that is not an integer in [0, K),
    a negative block entry or a nonpositive degree weight."""


class OddN(GraphCertError):
    """The equal-two-block closed form requires an even node count."""


# ---------------------------------------------------------------------------
# linear algebra

class NotSymmetric(GraphCertError):
    """Input matrix fails the symmetry tolerance (max-abs 1e-10)."""


class KOutOfRange(GraphCertError):
    """Target dimension k outside {1, ..., n-1}."""


class ShapeMismatch(GraphCertError):
    """Operands have incompatible shapes."""


# ---------------------------------------------------------------------------
# concentration / certificates

class BadLevel(GraphCertError):
    """Confidence level alpha outside (0, 1)."""


class NonpositiveGap(GraphCertError):
    """A missing gap certificate, one of 0 (or less), or one so small that
    the radius 2 q / gap overflows, cannot produce a radius."""


class QuantileOverflow(GraphCertError):
    """The deviation quantile is not finite in double precision: the
    declared d_max or the level alpha is too extreme to give a bound."""


# ---------------------------------------------------------------------------
# inference

class DuplicateCenters(GraphCertError):
    """Two declared cluster centers coincide."""


class NonFiniteRows(GraphCertError):
    """Rows given to K-means hold a NaN or an infinity, so no restart has a
    cost to rank."""


class NonpositiveMargin(GraphCertError):
    """A separation margin must be strictly positive, and so must its
    square, which every Hamming radius divides by."""


class OutsideDomain(GraphCertError):
    """A centrality functional was evaluated outside its certified domain."""

    def __init__(self, rho: float, limit: float):
        self.rho, self.limit = rho, limit
        super().__init__(
            f"spectral radius {rho!r} exceeds the certified domain limit {limit!r}"
        )


class DegenerateTopEigenvalue(GraphCertError):
    """Eigenvector centrality needs a simple top eigenvalue."""


# ---------------------------------------------------------------------------
# downstream

class EmptyGroup(GraphCertError):
    """Both protected groups must be nonempty."""


class InsufficientTolerance(GraphCertError):
    """The parity tolerance is smaller than the score-band slack r/tau."""


# ---------------------------------------------------------------------------
# protocol / simulation

class UnsupportedSpec(GraphCertError):
    """A parametric gap certificate is only computed for SBM specs."""


class TooSmall(GraphCertError):
    """Collision construction needs n >= 2k + 2."""


class NoTiePresent(GraphCertError):
    """The tie counterexample needs at least two admissible top-m sets."""

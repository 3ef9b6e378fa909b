"""graphcert: certificate-gated confidence regions for spectral graph objects.

A library plus CLI that turns one observed graph into finite-sample
confidence statements about latent spectral objects (eigenspaces,
clusterings, centralities) and propagates them to downstream guarantees,
refusing with a diagnostic whenever the required certificates (degree
envelope, spectral gap, margin, domain membership) are missing.
"""

from .errors import (
    BadLevel,
    DegenerateTopEigenvalue,
    DuplicateCenters,
    EmptyGroup,
    GraphCertError,
    InsufficientTolerance,
    KOutOfRange,
    MalformedMembership,
    NonFiniteRows,
    NonpositiveGap,
    NonpositiveMargin,
    NotSymmetric,
    NoTiePresent,
    OddN,
    OutOfRangeProbability,
    OutsideDomain,
    QuantileOverflow,
    ShapeMismatch,
    TooManyNodes,
    TooSmall,
    UnsupportedSpec,
)
from .models import (
    AdjacencyMatrix,
    DCSBMSpec,
    Envelope,
    ProbabilityModel,
    RDPGSpec,
    SBMSpec,
    build_probability_matrix,
    expected_degree_bound,
    sample_adjacency,
    two_block_sbm,
    two_block_spectrum,
)
from .linalg import (
    OrthonormalBasis,
    Spectrum,
    eigendecompose,
    eigengap,
    eigenvalues,
    frobenius_subspace_bound,
    grassmann_distance,
    procrustes_align,
    symmetric_operator_norm,
    weyl_gap_certificate,
)
from .concentration import (
    DeviationQuantile,
    davis_kahan_radius,
    deviation_quantile,
    deviation_quantile_from_envelope,
    variance_proxy,
)
from .inference import (
    CentralityBand,
    ClusterRegion,
    StabilityCertificate,
    SubspaceRegion,
    centrality_bands,
    cluster_hamming_radius,
    cluster_region,
    eigenvector_centrality,
    katz_centrality,
    katz_modulus,
    nearest_center_round,
    perm_hamming_distance,
    region_contains,
    rounding_error_bound,
    stability_certificate,
    subspace_region,
    top_m_selection,
)
from .downstream import (
    FairnessProblem,
    distance_matrix,
    fair_optimize,
    feasibility_transfer_check,
    filtration_envelope,
    logistic_decisions,
    parity_gap,
    ridge_risk,
    ridge_risk_bound,
    threshold_snapshots,
    tradeoff_bounds,
)
from .protocol import (
    DiagnosticReport,
    ProtocolConfig,
    config_from_dict,
    run_protocol,
    usvt_denoise,
)
from .simulation import (
    CoverageConfig,
    CoverageResult,
    collision_instance,
    coverage_experiment,
    modulus_audit,
    tie_counterexample,
)

__version__ = "0.1.0"

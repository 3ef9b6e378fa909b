"""Certificate-gated orchestration of a full analysis run.

A run consumes one observed graph and a declared configuration and returns
a diagnostic report. Four flags gate the outputs:

    D1  a degree envelope d_max was declared (feeds the deviation quantile)
    D2  a positive spectral-gap certificate was available
    D3  the centrality domain condition was declared or certified
    D4  a clustering margin was declared

An output appears iff all of its prerequisite flags pass; failures become
machine-readable refusals, never fabricated numbers. ``PREREQUISITES``
lists each gated output's flags in the order they are checked, and a
refusal names the first one that failed. The observed eigengap
is always reported, flagged as diagnostic only: it is not a certificate
and never enters any radius.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Optional

import numpy as np
from scipy.linalg.blas import dgemm

from .errors import (
    DegenerateTopEigenvalue,
    InsufficientTolerance,
    NonpositiveGap,
    NonpositiveMargin,
    OutsideDomain,
    QuantileOverflow,
    ShapeMismatch,
    UnsupportedSpec,
)
from .concentration import deviation_quantile_from_envelope
from .inference import (
    CentralityBand,
    _require_margin,
    center_separation,
    cluster_region,
    eigenvector_centrality,
    eigenvector_modulus,
    in_katz_domain,
    katz_centrality,
    katz_domain_limit,
    katz_modulus,
    stability_certificate,
    subspace_region,
)
from .downstream import (
    FairnessProblem,
    band_tolerance,
    fair_optimize,
    feasibility_transfer_check,
    logistic_decisions,
    parity_gap,
    quadratic_loss,
    threshold_snapshots,
)
from .linalg import KrylovSpectrum, Spectrum, _ritz_gap, weyl_gap_certificate
from .io import from_json, spec_from_dict
from .models import (
    AdjacencyMatrix,
    Envelope,
    SBMSpec,
    build_probability_matrix,
    real_tuple,
    require_finite,
    require_integer,
    require_unit_interval,
)

__all__ = [
    "CentralityConfig",
    "ClusteringConfig",
    "UsvtConfig",
    "FairnessConfig",
    "FiltrationConfig",
    "ProtocolConfig",
    "DiagnosticReport",
    "usvt_denoise",
    "run_protocol",
    "FLAG_REASONS",
    "PREREQUISITES",
    "config_from_dict",
    "report_to_json",
]

REPORT_SCHEMA_VERSION = 3


# ---------------------------------------------------------------------------
# configuration

def _require_nonnegative(block: str, **declared) -> None:
    """Refuse a negative declared value; None means not declared."""
    for name, value in declared.items():
        if value is not None and value < 0:
            raise ValueError(f"{block} {name} must be nonnegative, got {value!r}")


@dataclass(frozen=True)
class CentralityConfig:
    kind: str                       # "katz" or "eigenvector"
    beta: Optional[float] = None    # required for katz
    gamma: Optional[float] = None   # declared top-eigenvalue gap (eigenvector)
    domain_certified: bool = False  # declared membership of P in the domain

    def __post_init__(self):
        require_finite(beta=self.beta, gamma=self.gamma)
        _require_nonnegative("centrality", gamma=self.gamma)
        if self.kind not in ("katz", "eigenvector"):
            raise ValueError(f"unknown centrality kind {self.kind!r}")
        if self.kind == "katz" and (self.beta is None or self.beta <= 0):
            raise ValueError("katz centrality needs beta > 0")
        if not isinstance(self.domain_certified, bool):
            raise ValueError(f"domain_certified must be a boolean, got {self.domain_certified!r}")


@dataclass(frozen=True)
class ClusteringConfig:
    delta: Optional[float] = None     # separation margin
    centers: Optional[tuple] = None   # K x k declared centers (row tuples)
    c_row: Optional[float] = None     # rowwise stability certificate

    def __post_init__(self):
        require_finite(delta=self.delta, c_row=self.c_row)
        _require_nonnegative("clustering", delta=self.delta, c_row=self.c_row)
        if self.centers is not None:
            rows = tuple(real_tuple("centers", row) for row in self.centers)
            if len(rows) < 2:
                raise ValueError(f"declared centers need at least 2 rows, got {len(rows)}")
            object.__setattr__(self, "centers", rows)
            centers = np.asarray(self.centers, float)
            if not np.all(np.isfinite(centers)):
                raise ValueError("declared centers must be finite")
            # rows of an orthonormal basis, and their means, have norm <= 1
            if np.any(np.hypot.reduce(centers, axis=1) > 1.0 + 1e-12):
                raise ValueError("declared centers must have row norm at most 1")
            # the margin must hold between the declared centers themselves;
            # the slack admits centers exactly delta apart up to rounding
            if self.delta is not None:
                sep = center_separation(centers)
                if sep < self.delta * (1.0 - 1e-12):
                    raise ValueError(
                        f"declared centers are {sep!r} apart, closer than delta = {self.delta!r}"
                    )


@dataclass(frozen=True)
class UsvtConfig:
    threshold_scale: float = 2.02  # slightly above the x2 bulk-edge heuristic
    eps_p: Optional[float] = None  # certified ||P_hat - P|| bound, user supplied

    def __post_init__(self):
        require_finite(threshold_scale=self.threshold_scale, eps_p=self.eps_p)
        object.__setattr__(self, "threshold_scale", float(self.threshold_scale))
        if self.threshold_scale <= 0:
            raise ValueError(f"usvt threshold_scale must be positive, got {self.threshold_scale!r}")
        _require_nonnegative("usvt", eps_p=self.eps_p)


@dataclass(frozen=True)
class FairnessConfig:
    groups: tuple      # binary attribute per node
    targets: tuple     # values in [0, 1]
    tau: float
    epsilon: float

    def __post_init__(self):
        require_finite(tau=self.tau, epsilon=self.epsilon)
        groups = tuple(require_integer("fairness groups", g) for g in self.groups)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "targets", real_tuple("fairness targets", self.targets))
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        require_unit_interval("fairness targets", self.targets)
        if len(groups) != len(self.targets):
            raise ShapeMismatch(
                f"fairness groups and targets differ in length: {len(groups)} and "
                f"{len(self.targets)}"
            )
        if set(groups) != {0, 1}:
            raise ValueError(
                f"fairness groups must be 0 or 1, both present, got {sorted(set(groups))}"
            )
        if self.tau <= 0:
            raise ValueError("fairness temperature tau must be positive")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("fairness tolerance epsilon must lie in [0, 1]")


@dataclass(frozen=True)
class FiltrationConfig:
    t_grid: tuple

    def __post_init__(self):
        t_grid = real_tuple("t_grid", self.t_grid)
        for t in t_grid:
            require_finite(t_grid=t)
        object.__setattr__(self, "t_grid", t_grid)


@dataclass(frozen=True)
class ProtocolConfig:
    """Declared analysis envelope. k is declared, never inferred."""

    k: int
    alpha: float = 0.05
    envelope: Optional[Envelope] = None
    parametric_spec: Optional[SBMSpec] = None
    usvt: Optional[UsvtConfig] = None
    centrality: Optional[CentralityConfig] = None
    clustering: Optional[ClusteringConfig] = None
    selection_m: Optional[int] = None
    fairness: Optional[FairnessConfig] = None
    filtration: Optional[FiltrationConfig] = None

    def __post_init__(self):
        if require_integer("k", self.k) < 1:
            raise ValueError("k must be a positive integer (it is declared, never inferred)")
        if self.selection_m is not None and require_integer("selection_m", self.selection_m) < 1:
            raise ValueError(f"selection_m must be at least 1, got {self.selection_m!r}")
        require_finite(alpha=self.alpha)
        object.__setattr__(self, "alpha", float(self.alpha))
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        centers = self.clustering.centers if self.clustering is not None else None
        if centers is not None and len(centers[0]) != self.k:
            raise ShapeMismatch(
                f"declared centers have {len(centers[0])} entries per row, k = {self.k}"
            )
        if self.parametric_spec is not None and not isinstance(self.parametric_spec, SBMSpec):
            raise UnsupportedSpec(
                "parametric gap certificates support SBM specs, "
                f"got {type(self.parametric_spec).__name__}"
            )


# the reader of each nested block of a config document
_BLOCKS = {
    "envelope": partial(from_json, Envelope),
    "parametric_spec": spec_from_dict,
    "usvt": partial(from_json, UsvtConfig),
    "centrality": partial(from_json, CentralityConfig),
    "clustering": partial(from_json, ClusteringConfig),
    "fairness": partial(from_json, FairnessConfig),
    "filtration": partial(from_json, FiltrationConfig),
}


def config_from_dict(d: dict) -> ProtocolConfig:
    """Parse a configuration document: its keys, and those of each nested
    block, are the fields of the dataclass they build (:func:`io.from_json`),
    and ``parametric_spec`` is an ``sbm`` model object. A config without k
    is rejected."""
    return from_json(ProtocolConfig, d, "config", readers=_BLOCKS)


# ---------------------------------------------------------------------------
# protocol operations

_ROW_BLOCK = 128  # rows of V diag(w) V^T, or of P_hat, handled at a time

KRYLOV_N0 = 400
"""The fewest nodes at which the observed spectrum is read by Krylov
certificates (:class:`KrylovSpectrum`) rather than one Householder
reduction, the USVT route's kept pairs included. On a 2-core host the
reads a certify op makes (the k = 2 gap, basis, radius and Katz solve) of
two-block graphs (0.3/0.1; median over 8 graphs of each one's best of 3)
took 3.5 against the reduction's 4.0 ms at n = 300 (less on 6 graphs), 4.6
against 6.1 at 400, 7.4 against 13.1 at 600, 12.9 against 24.0 at 800, 23.9
against 43.8 at 1000, 33.3 against 73.5 at 1200 and 99 against 338 at 2000."""


def _usvt_kept(S: Spectrum, threshold_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of A = ``S.matrix`` that USVT keeps, ascending: those with
    magnitude at least threshold_scale * sqrt(n * density), read by
    ``S.beyond``. A NaN, infinite or nonpositive threshold_scale is
    refused."""
    require_finite(threshold_scale=threshold_scale)
    if not threshold_scale > 0:
        raise ValueError("threshold_scale must be positive")
    n = S.n
    density = float(S.matrix.sum()) / (n * (n - 1)) if n > 1 else 0.0
    return S.beyond(threshold_scale * math.sqrt(max(n * density, 0.0)))


def usvt_denoise(S: Spectrum, threshold_scale: float = 2.02) -> np.ndarray:
    """Spectral-threshold denoiser for the edge-probability matrix.

    Eigencomponents of A = ``S.matrix`` with magnitude below threshold_scale *
    sqrt(n * density) are zeroed (only the kept pairs are read, see
    :func:`_usvt_kept`), entries are clipped to [0, 1], and the diagonal is
    zeroed. Used only to feed the Weyl gap certificate with a user-supplied
    denoising error bound; no deviation quantile is derived from it. A NaN,
    infinite or nonpositive threshold_scale is refused. The result is
    exactly symmetric and read-only, so it can be a :class:`Spectrum` as it
    is. It is the one n x n array made (see :func:`_symmetrize`).
    """
    w, V = _usvt_kept(S, threshold_scale)
    # scipy's BLAS, the one the eigensolves use: an n x n numpy matmul would
    # leave numpy's BLAS threads spinning into the gap read of P_hat
    # (the Katz scores are a LAPACK solve too: the op makes no such numpy call)
    P_hat = dgemm(1.0, V * w, V, trans_b=True)
    np.clip(P_hat, 0.0, 1.0, out=P_hat)
    _symmetrize(P_hat)
    np.fill_diagonal(P_hat, 0.0)
    P_hat.setflags(write=False)
    return P_hat


def _symmetrize(P: np.ndarray) -> None:
    """P <- (P + P^T) / 2 in place, one pair of ``_ROW_BLOCK`` blocks at a
    time, so the one temporary is a block. Addition commutes in floating
    point, so both triangles get the bits of ``(P + P.T) / 2.0``."""
    n, b = P.shape[0], _ROW_BLOCK
    for i in range(0, n, b):
        for j in range(i, n, b):
            upper, lower = P[i : i + b, j : j + b], P[j : j + b, i : i + b]
            mean = upper + lower.T
            mean /= 2.0
            upper[...] = mean
            lower[...] = mean.T


def _clip_free(w: np.ndarray, V: np.ndarray) -> bool:
    """Whether every off-diagonal entry of V diag(w) V^T lies in [delta,
    1 - delta], read ``_ROW_BLOCK`` rows at a time. delta = 2 (r + 2) eps
    max|w| covers twice the rounding of a computed entry, gamma_{r+1} max|w|
    for unit rows, so no entry of :func:`usvt_denoise`'s own product of the
    same pairs clips either: its P_hat is V diag(w) V^T with the diagonal
    zeroed, up to rounding."""
    n, r = V.shape
    delta = 2 * (r + 2) * np.finfo(float).eps * float(np.max(np.abs(w), initial=0.0))
    Wv, V = np.asfortranarray(V * w), np.asfortranarray(V)
    for start in range(0, n, _ROW_BLOCK):
        stop = min(n, start + _ROW_BLOCK)
        rows = dgemm(1.0, Wv[start:stop], V, trans_b=True)
        rows[np.arange(stop - start), np.arange(start, stop)] = 0.5  # zeroed, never clipped
        if not (delta <= rows.min() and rows.max() <= 1.0 - delta):  # NaN fails
            return False
    return True


# ---------------------------------------------------------------------------
# diagnostic report

@dataclass(frozen=True)
class Flag:
    passed: bool
    provenance: str


@dataclass(frozen=True)
class DiagnosticReport:
    """Gated outputs plus the full pass/fail record of their prerequisites."""

    n: int
    k: int
    alpha: float
    observed_gap_proxy: float
    flags: dict            # "D1".."D4" -> Flag
    certificates: dict     # the certificate values every output was gated on
    quantile: Optional[float]
    outputs: dict          # present iff gated open
    refusals: tuple        # machine-readable (output, reason, detail)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "n": self.n,
            "k": self.k,
            "alpha": self.alpha,
            "observed_gap_proxy": {
                "value": self.observed_gap_proxy,
                "certificate": False,
                "note": "diagnostic only; never used in any radius",
            },
            "flags": {name: asdict(fl) for name, fl in self.flags.items()},
            "certificates": self.certificates,
            "deviation_quantile": self.quantile,
            "outputs": self.outputs,
            "refusals": list(self.refusals),
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        return report_to_json(self.to_dict())


def _numpy_to_json(obj):
    """numpy arrays and scalars as the Python lists and numbers they hold."""
    if isinstance(obj, (np.ndarray, np.bool_, np.number)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def report_to_json(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, 2-space indent, each real
    in its shortest round-trip spelling."""
    return json.dumps(obj, indent=2, default=_numpy_to_json)


# ---------------------------------------------------------------------------
# the protocol

# the refusal reason of each failed flag, and the flags each gated output
# needs, in the order they are checked
FLAG_REASONS = {
    "D1": "no_degree_envelope",
    "D2": "no_gap_certificate",
    "D3": "domain_not_certified",
    "D4": "no_margin_declared",
}

PREREQUISITES = {
    "deviation_quantile": ("D1",),
    "subspace": ("D1", "D2"),
    "centrality_bands": ("D1", "D3"),
    "cluster": ("D4", "D1", "D2"),
    "fairness": ("D1", "D3"),
    "filtration": ("D1", "D2"),
}


def run_protocol(A: AdjacencyMatrix, config: ProtocolConfig) -> DiagnosticReport:
    """Execute the full certificate-gated pipeline on one observed graph.

    The observed graph's spectrum is computed once and shared by the gap
    proxy, the USVT route, the subspace region and the centrality scores:
    from n = ``KRYLOV_N0`` on, its k largest pairs, the (k+1)-th value, the
    USVT route's kept pairs (when they are at most k, with none at or below
    -thr) and the Katz solve are Krylov reads certified without the
    reduction (:class:`KrylovSpectrum`), and any read they cannot certify
    falls back to it; below, it is one Householder reduction. The kept
    pairs are read first, so a report whose kept pairs fall back is the
    reduction route's throughout. The USVT route reads P_hat's gap from A's
    kept pairs, and reduces P_hat only when that read is not certified.
    """
    n = A.n
    k = config.k
    alpha = config.alpha
    if not 1 <= k <= n - 1:
        raise ValueError(f"k = {k} must lie in [1, {n - 1}]")
    spec = config.parametric_spec
    if spec is not None and spec.n != n:
        raise ShapeMismatch(f"parametric_spec has {spec.n} nodes, the graph has {n}")
    if config.fairness is not None and len(config.fairness.groups) != n:
        raise ShapeMismatch(
            f"fairness groups and targets have {len(config.fairness.groups)} entries, "
            f"the graph has {n} nodes"
        )

    refusals: list = []
    outputs: dict = {}
    diagnostics: dict = {}

    # observed spectrum, read on first need; A.A was checked symmetric and
    # 0/1 where it entered, when A was built, and is read-only
    S = KrylovSpectrum(A.A, k) if n >= KRYLOV_N0 else Spectrum(A.A)

    # D1: deviation quantile from the declared degree envelope
    d_max = config.envelope.d_max if config.envelope is not None else None
    q = None
    if d_max is not None:
        try:
            q = deviation_quantile_from_envelope(d_max, n, alpha).q
            d1 = Flag(True, f"declared d_max = {d_max!r}")
        except QuantileOverflow as exc:
            d1 = Flag(False, f"declared d_max = {d_max!r}: {exc}")
    else:
        d1 = Flag(False, "no d_max declared")

    # D2: gap certificate (parametric > declared > usvt+weyl); the spectrum
    # S_P of the parametric P also feeds D3. P was checked when it was built,
    # and P_hat is symmetric by construction: both are read-only spectra as
    # they are. With D1 passed, the gate builds the one subspace region
    gap: Optional[float] = None
    region = None
    gap_source = "none"
    S_P = None
    if spec is not None:
        S_P = Spectrum(build_probability_matrix(spec).P)
        gap = S_P.gap(k)
        gap_source = "parametric"
    elif config.envelope is not None and config.envelope.gap is not None:
        gap = float(config.envelope.gap)
        gap_source = "declared"
    elif config.usvt is not None and config.usvt.eps_p is not None:
        # unless an entry clips, P_hat is V diag(w) V^T with its diagonal
        # zeroed, and its gap is read on the kept pairs with no n x n array;
        # a graph that clips, or a read that cannot certify, reduces P_hat
        scale = config.usvt.threshold_scale
        w, V = _usvt_kept(S, scale)
        gap_hat = _ritz_gap(w, V, k)[0] if _clip_free(w, V) else None
        if gap_hat is None:
            gap_hat = Spectrum(usvt_denoise(S, scale)).gap(k)
        gap = weyl_gap_certificate(gap_hat, config.usvt.eps_p)
        gap_source = "usvt_weyl"
        diagnostics["usvt"] = {
            "threshold_scale": config.usvt.threshold_scale,
            "eps_p": config.usvt.eps_p,
            "empirical_gap_of_denoised": gap_hat,
        }
    # the gap proxy is diagnostic only, never a radius; read after the kept
    # pairs, whose fallback then makes every read of S the reduction's
    proxy = S.gap(k)
    if gap is not None and gap > 0:
        d2 = Flag(True, f"{gap_source} gap certificate = {gap!r}")
        if q is not None:
            try:
                region = subspace_region(S, k, q, gap, alpha)
            except NonpositiveGap as exc:  # 2 q / gap overflowed
                d2 = Flag(False, f"{gap_source} {exc}")
    else:
        detail = (
            "no gap certificate route configured"
            if gap is None
            else f"{gap_source} certificate is 0"
        )
        d2 = Flag(False, detail)

    # D3: the centrality functional, chosen once: its scorer, its band's
    # name, its modulus L, refused if it overflows, and its domain route. A
    # parametric spec decides the domain, even when it fails; without one the
    # declaration does. With D1 passed, the gate forms the one band half-width L * q
    cent = config.centrality
    half_width: Optional[float] = None
    domain_note = "no centrality functional declared"
    domain_ok: Optional[bool] = None
    if cent is not None:
        if cent.kind == "katz":
            scorer = partial(katz_centrality, beta=cent.beta)
            functional, modulus = f"katz(beta={cent.beta!r})", partial(katz_modulus, cent.beta)
            if S_P is not None:
                rho = S_P.radius
                domain_ok = in_katz_domain(rho, cent.beta)
                domain_note = (
                    f"parametric: rho(P) = {rho!r} vs limit {katz_domain_limit(cent.beta)!r}"
                )
            else:
                domain_ok = cent.domain_certified
                domain_note = "declared" if domain_ok else "not declared or certified"
        else:  # eigenvector
            scorer, functional = eigenvector_centrality, "eigenvector"
            gamma = None
            if S_P is not None:
                gamma = S_P.gap(1)
                domain_note = f"parametric: top gap = {gamma!r}"
            elif cent.gamma is not None and cent.domain_certified:
                gamma = float(cent.gamma)
                domain_note = f"declared gamma = {gamma!r}"
            else:
                domain_note = "not declared or certified"
            domain_ok = gamma is not None and gamma > 0
            modulus = partial(eigenvector_modulus, gamma)
        if domain_ok:
            try:
                L = modulus()
            except ValueError as exc:
                domain_ok, domain_note = False, f"{domain_note}; {exc}"
        if domain_ok and q is not None:
            half_width = L * q
            if not math.isfinite(2.0 * half_width):
                domain_ok = False
                domain_note += f"; modulus {L!r} times q = {q!r} overflows"
    d3 = Flag(bool(domain_ok), domain_note)

    # D4: clustering margin
    clus = config.clustering
    delta = clus.delta if clus is not None else None
    if delta is None:
        d4 = Flag(False, "no clustering margin declared")
    else:
        try:
            _require_margin(delta)
        except NonpositiveMargin as exc:
            d4 = Flag(False, f"declared {exc}")
        else:
            d4 = Flag(True, f"declared margin = {delta!r}")
    flags = {"D1": d1, "D2": d2, "D3": d3, "D4": d4}

    def refuse(output: str, reason: str, detail: str) -> None:
        refusals.append({"output": output, "reason": reason, "detail": detail})

    def gated_shut(output: str, detail: Optional[str] = None) -> bool:
        """Refuse ``output`` for its first failed prerequisite, if any; the
        detail is that flag's provenance unless ``detail`` is given."""
        for name in PREREQUISITES[output]:
            if not flags[name].passed:
                refuse(output, FLAG_REASONS[name], detail or flags[name].provenance)
                return True
        return False

    gated_shut(
        "deviation_quantile",
        None if d_max is not None else "declare envelope.d_max to obtain a deviation quantile",
    )

    # the rowwise bound of the cluster ball and the filtration sandwich
    c_row = clus.c_row if clus is not None else None
    eta = c_row * region.radius if region is not None and c_row is not None else None

    # Step 4: subspace region iff D1 and D2; the cluster and filtration steps read it
    if not gated_shut("subspace"):
        outputs["subspace"] = {
            "radius": region.radius,
            "informative": region.informative,
            "alpha": alpha,
            "k": k,
            "center": region.center.U,
        }
        if not region.informative:
            outputs["subspace"]["note"] = (
                "radius >= 1: the region is valid but vacuous on the Grassmannian"
            )

    # Step 5: centrality bands and selection stability iff D1 and D3
    scores = None
    if cent is not None and not gated_shut("centrality_bands"):
        try:
            scores = scorer(S)
        except (OutsideDomain, DegenerateTopEigenvalue) as exc:
            refuse("centrality_bands", "domain_violated_at_observation", str(exc))
        else:
            band = CentralityBand(functional, half_width, alpha, scores)
            outputs["centrality_bands"] = asdict(band)
    m = config.selection_m
    if m is not None:
        if cent is None:
            refuse("stability", "no_centrality_functional",
                   "declare a centrality block to score the selection")
        elif scores is None:
            refuse("stability", "no_scores", "stability needs certified centrality scores")
        else:
            outputs["stability"] = asdict(stability_certificate(scores, m, half_width))

    # free the n x n reduction of A before the filtration's n(n-1)/2 distances
    del S

    # Step 6: clustering region iff D1, D2 and D4
    if clus is not None and not gated_shut("cluster"):
        creg = cluster_region(region, delta, centers=clus.centers, eta=eta)
        outputs["cluster"] = asdict(creg)
        if creg.vacuous:
            outputs["cluster"]["note"] = "hamming radius reached n: the ball is all assignments"

    # fairness: certified feasibility via the centrality band
    no_band = "fairness certification needs a certified score band"
    fc = config.fairness
    if fc is not None and not gated_shut("fairness", no_band):
        if scores is None:
            refuse("fairness", "no_scores", no_band)
        else:
            try:
                eff = band_tolerance(half_width, fc.tau, fc.epsilon)
            except InsufficientTolerance as exc:  # epsilon below the band slack r/tau
                refuse("fairness", "insufficient_tolerance", str(exc))
            else:
                problem = FairnessProblem(x=scores, y=fc.targets, s=fc.groups,
                                          tau=fc.tau, epsilon=fc.epsilon)
                theta = fair_optimize(problem, eff)
                ok = feasibility_transfer_check(theta, scores, problem.s, half_width, fc.tau,
                                                fc.epsilon)
                d_hat = logistic_decisions(problem.x, problem.s, problem.tau, theta)
                outputs["fairness"] = {
                    "theta": theta,
                    "certified": bool(ok),
                    "parity_gap_at_scores": parity_gap(d_hat, problem.s),
                    "effective_epsilon": eff,
                    "band_radius": half_width,
                    "loss": quadratic_loss(d_hat, problem.y),
                }

    # filtration envelope of the observed embedding rows
    if config.filtration is not None:
        if c_row is None:
            refuse("filtration", "no_rowwise_certificate", "declare clustering.c_row")
        elif not gated_shut("filtration"):
            if not math.isfinite(eta):
                refuse("filtration", "no_rowwise_certificate", f"c_row * radius = {eta!r}")
            else:
                snaps = threshold_snapshots(region.center.U, eta, config.filtration.t_grid)
                outputs["filtration"] = {
                    "eta": eta,
                    "t_grid": list(config.filtration.t_grid),
                    "snapshots": [asdict(s) for s in snaps],
                    "note": "population threshold graphs are sandwiched between "
                            "the lower and upper snapshots on the region event",
                }

    return DiagnosticReport(
        n=n,
        k=k,
        alpha=alpha,
        observed_gap_proxy=proxy,
        flags=flags,
        certificates={
            "d_max": d_max,
            "gap": gap,
            "margin": delta,
            "c_row": c_row,
            "centrality_domain": domain_ok,
            "provenance": gap_source,
        },
        quantile=q,
        outputs=outputs,
        refusals=tuple(refusals),
        diagnostics=diagnostics,
    )

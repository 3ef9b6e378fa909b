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

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DegenerateTopEigenvalue,
    NonpositiveGap,
    OutsideDomain,
    QuantileOverflow,
    UnsupportedSpec,
)
from .concentration import davis_kahan_radius, deviation_quantile_from_envelope
from .inference import (
    center_separation,
    centrality_bands,
    cluster_region,
    eigenvector_centrality,
    katz_centrality,
    katz_modulus,
    stability_certificate,
    subspace_region,
)
from .downstream import (
    FairnessProblem,
    fair_optimize,
    feasibility_transfer_check,
    logistic_decisions,
    parity_gap,
    quadratic_loss,
    distance_matrix,
    threshold_snapshots,
)
from .linalg import (
    Spectrum,
    eigendecompose,
    eigengap,
    eigenvalues,
    symmetric_operator_norm,
    weyl_gap_certificate,
)
from .models import (
    AdjacencyMatrix,
    Envelope,
    SBMSpec,
    build_probability_matrix,
    require_finite,
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
    "config_to_dict",
    "report_to_json",
]

REPORT_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class CentralityConfig:
    kind: str                       # "katz" or "eigenvector"
    beta: Optional[float] = None    # required for katz
    gamma: Optional[float] = None   # declared top-eigenvalue gap (eigenvector)
    domain_certified: bool = False  # declared membership of P in the domain

    def __post_init__(self):
        require_finite(beta=self.beta, gamma=self.gamma)
        if self.kind not in ("katz", "eigenvector"):
            raise ValueError(f"unknown centrality kind {self.kind!r}")
        if self.kind == "katz" and (self.beta is None or self.beta <= 0):
            raise ValueError("katz centrality needs beta > 0")


@dataclass(frozen=True)
class ClusteringConfig:
    delta: Optional[float] = None     # separation margin
    centers: Optional[tuple] = None   # K x k declared centers (row tuples)
    c_row: Optional[float] = None     # rowwise stability certificate

    def __post_init__(self):
        require_finite(delta=self.delta, c_row=self.c_row)
        if self.centers is not None:
            centers = np.asarray(self.centers, float)
            if not np.all(np.isfinite(centers)):
                raise ValueError("declared centers must be finite")
            # rows of an orthonormal basis, and their means, have norm <= 1
            if np.any(np.hypot.reduce(centers, axis=1) > 1.0 + 1e-12):
                raise ValueError("declared centers must have row norm at most 1")
            # the margin must hold between the declared centers themselves;
            # the slack admits centers exactly delta apart up to rounding
            if self.delta is not None and len(centers) > 1:
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


@dataclass(frozen=True)
class FairnessConfig:
    groups: tuple      # binary attribute per node
    targets: tuple     # values in [0, 1]
    tau: float
    epsilon: float

    def __post_init__(self):
        require_finite(tau=self.tau, epsilon=self.epsilon)
        require_unit_interval("fairness targets", self.targets)
        if self.tau <= 0:
            raise ValueError("fairness temperature tau must be positive")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("fairness tolerance epsilon must lie in [0, 1]")


@dataclass(frozen=True)
class FiltrationConfig:
    t_grid: tuple


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
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError("k must be a positive integer (it is declared, never inferred)")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.parametric_spec is not None and not isinstance(self.parametric_spec, SBMSpec):
            raise UnsupportedSpec(
                "parametric gap certificates support SBM specs, "
                f"got {type(self.parametric_spec).__name__}"
            )


def config_from_dict(d: dict) -> ProtocolConfig:
    """Parse a configuration document. A config without k is rejected."""
    if "k" not in d:
        raise ValueError("config must declare k")
    env = None
    if "envelope" in d and d["envelope"] is not None:
        e = d["envelope"]
        env = Envelope(d_max=e.get("d_max"), gap=e.get("gap"))
    spec = None
    if d.get("parametric_spec") is not None:
        s = d["parametric_spec"]
        if s.get("type") != "sbm":
            raise UnsupportedSpec(
                "parametric gap certificates are computed for SBM specs only"
            )
        spec = SBMSpec.from_labels(s["labels"], np.asarray(s["B"], dtype=float))
    usvt = None
    if d.get("usvt") is not None:
        u = d["usvt"]
        usvt = UsvtConfig(
            threshold_scale=float(u.get("threshold_scale", 2.02)),
            eps_p=u.get("eps_p"),
        )
    cent = None
    if d.get("centrality") is not None:
        c = d["centrality"]
        cent = CentralityConfig(
            kind=c["kind"],
            beta=c.get("beta"),
            gamma=c.get("gamma"),
            domain_certified=bool(c.get("domain_certified", False)),
        )
    clus = None
    if d.get("clustering") is not None:
        c = d["clustering"]
        centers = c.get("centers")
        clus = ClusteringConfig(
            delta=c.get("delta"),
            centers=tuple(tuple(row) for row in centers) if centers is not None else None,
            c_row=c.get("c_row"),
        )
    fair = None
    if d.get("fairness") is not None:
        f = d["fairness"]
        fair = FairnessConfig(
            groups=tuple(int(g) for g in f["groups"]),
            targets=tuple(float(t) for t in f["targets"]),
            tau=float(f["tau"]),
            epsilon=float(f["epsilon"]),
        )
    filt = None
    if d.get("filtration") is not None:
        filt = FiltrationConfig(t_grid=tuple(float(t) for t in d["filtration"]["t_grid"]))
    return ProtocolConfig(
        k=int(d["k"]),
        alpha=float(d.get("alpha", 0.05)),
        envelope=env,
        parametric_spec=spec,
        usvt=usvt,
        centrality=cent,
        clustering=clus,
        selection_m=(int(d["selection_m"]) if d.get("selection_m") is not None else None),
        fairness=fair,
        filtration=filt,
    )


def config_to_dict(cfg: ProtocolConfig) -> dict:
    out: dict = {"k": cfg.k, "alpha": cfg.alpha}
    if cfg.envelope is not None:
        out["envelope"] = {"d_max": cfg.envelope.d_max, "gap": cfg.envelope.gap}
    if cfg.parametric_spec is not None:
        out["parametric_spec"] = {
            "type": "sbm",
            "labels": [int(v) for v in cfg.parametric_spec.labels],
            "B": [[float(v) for v in row] for row in cfg.parametric_spec.B],
        }
    if cfg.usvt is not None:
        out["usvt"] = {
            "threshold_scale": cfg.usvt.threshold_scale,
            "eps_p": cfg.usvt.eps_p,
        }
    if cfg.centrality is not None:
        out["centrality"] = {
            "kind": cfg.centrality.kind,
            "beta": cfg.centrality.beta,
            "gamma": cfg.centrality.gamma,
            "domain_certified": cfg.centrality.domain_certified,
        }
    if cfg.clustering is not None:
        out["clustering"] = {
            "delta": cfg.clustering.delta,
            "centers": (
                [list(row) for row in cfg.clustering.centers]
                if cfg.clustering.centers is not None
                else None
            ),
            "c_row": cfg.clustering.c_row,
        }
    if cfg.selection_m is not None:
        out["selection_m"] = cfg.selection_m
    if cfg.fairness is not None:
        out["fairness"] = {
            "groups": list(cfg.fairness.groups),
            "targets": list(cfg.fairness.targets),
            "tau": cfg.fairness.tau,
            "epsilon": cfg.fairness.epsilon,
        }
    if cfg.filtration is not None:
        out["filtration"] = {"t_grid": list(cfg.filtration.t_grid)}
    return out


# ---------------------------------------------------------------------------
# protocol operations

def usvt_denoise(S: Spectrum, threshold_scale: float = 2.02) -> np.ndarray:
    """Spectral-threshold denoiser for the edge-probability matrix.

    Eigencomponents of A = ``S.matrix`` with magnitude below threshold_scale *
    sqrt(n * density) are zeroed, entries are clipped to [0, 1], and the
    diagonal is zeroed. Used only to feed the Weyl gap certificate with a
    user-supplied denoising error bound; no deviation quantile is derived
    from it.
    """
    if threshold_scale <= 0:
        raise ValueError("threshold_scale must be positive")
    n = S.n
    w, V = S.values, S.vectors
    density = float(S.matrix.sum()) / (n * (n - 1)) if n > 1 else 0.0
    thr = threshold_scale * math.sqrt(max(n * density, 0.0))
    keep = np.abs(w) >= thr if thr > 0 else np.ones_like(w, dtype=bool)
    P_hat = (V[:, keep] * w[keep]) @ V[:, keep].T
    np.clip(P_hat, 0.0, 1.0, out=P_hat)
    P_hat = (P_hat + P_hat.T) / 2.0
    np.fill_diagonal(P_hat, 0.0)
    return P_hat


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
            "flags": {
                name: {"passed": fl.passed, "provenance": fl.provenance}
                for name, fl in self.flags.items()
            },
            "certificates": self.certificates,
            "deviation_quantile": self.quantile,
            "outputs": self.outputs,
            "refusals": list(self.refusals),
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        return report_to_json(self.to_dict())


def _fmt_float(x: float) -> str:
    """17 significant digits; round-trips every IEEE double."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def report_to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-digit reals."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{key}": {report_to_json(val, indent + 1)}'
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{pad}  {report_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)) or obj is None:
        return {True: "true", False: "false", None: "null"}[
            bool(obj) if obj is not None else None
        ]
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        import json as _json

        return _json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return report_to_json(obj.tolist(), indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


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

    The observed graph is decomposed once; the gap proxy, the USVT route,
    the subspace region and the centrality scores all read that spectrum.
    """
    n = A.n
    k = config.k
    alpha = config.alpha
    if not 1 <= k <= n - 1:
        raise ValueError(f"k = {k} must lie in [1, {n - 1}]")

    refusals: list = []
    outputs: dict = {}
    diagnostics: dict = {}

    # observed spectrum; the gap proxy is diagnostic only, never a radius
    S = eigendecompose(A.A)
    proxy = S.gap(k)

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

    # D2: gap certificate (parametric > declared > usvt+weyl); the descending
    # eigenvalues w_P of the parametric P also feed D3
    gap: Optional[float] = None
    gap_source = "none"
    w_P = None
    if config.parametric_spec is not None:
        w_P = eigenvalues(build_probability_matrix(config.parametric_spec).P)[::-1]
        gap = max(eigengap(w_P, k), 0.0)
        gap_source = "parametric"
    elif config.envelope is not None and config.envelope.gap is not None:
        gap = float(config.envelope.gap)
        gap_source = "declared"
    elif config.usvt is not None and config.usvt.eps_p is not None:
        P_hat = usvt_denoise(S, config.usvt.threshold_scale)
        w_hat = eigenvalues(P_hat)[::-1]
        gap = weyl_gap_certificate(eigengap(w_hat, k), config.usvt.eps_p)
        gap_source = "usvt_weyl"
        resid = symmetric_operator_norm(S.matrix - P_hat)
        diagnostics["usvt"] = {
            "threshold_scale": config.usvt.threshold_scale,
            "eps_p": config.usvt.eps_p,
            "empirical_gap_of_denoised": eigengap(w_hat, k),
            "uncertified_deviation_route": resid + config.usvt.eps_p,
            "note": "the residual route ||A - P_hat|| + eps_p has no "
                    "certified tail theorem here and gates nothing",
        }
    if gap is not None and gap > 0:
        d2 = Flag(True, f"{gap_source} gap certificate = {gap!r}")
        if q is not None:
            try:
                davis_kahan_radius(q, gap)
            except NonpositiveGap as exc:  # 2 q / gap overflowed
                d2 = Flag(False, f"{gap_source} {exc}")
    else:
        detail = (
            "no gap certificate route configured"
            if gap is None
            else f"{gap_source} certificate is 0"
        )
        d2 = Flag(False, detail)

    # D3: centrality domain certificate
    cent = config.centrality
    L: Optional[float] = None
    domain_note = "no centrality functional declared"
    domain_ok: Optional[bool] = None
    if cent is not None:
        if cent.kind == "katz":
            limit = 1.0 / (2.0 * cent.beta)
            if w_P is not None:
                rho = float(max(abs(w_P[-1]), abs(w_P[0])))
                domain_ok = rho <= limit * (1.0 + 1e-12)
                domain_note = (
                    f"parametric: rho(P) = {rho!r} vs limit {limit!r}"
                )
            else:
                domain_ok = bool(cent.domain_certified)
                domain_note = "declared" if domain_ok else "not declared or certified"
            if domain_ok:
                L = katz_modulus(cent.beta)
        else:  # eigenvector
            gamma = None
            if w_P is not None:
                gamma = float(w_P[0] - w_P[1])
                domain_note = f"parametric: top gap = {gamma!r}"
            elif cent.gamma is not None and cent.domain_certified:
                gamma = float(cent.gamma)
                domain_note = f"declared gamma = {gamma!r}"
            else:
                domain_note = "not declared or certified"
            domain_ok = gamma is not None and gamma > 0
            if domain_ok:
                L = 2.0 / gamma
        if domain_ok and q is not None and not math.isfinite(2.0 * L * q):
            domain_ok = False
            domain_note += f"; modulus {L!r} times q = {q!r} overflows"
    d3 = Flag(bool(domain_ok), domain_note)

    # D4: clustering margin
    clus = config.clustering
    delta = clus.delta if clus is not None else None
    if delta is None or delta <= 0:
        d4 = Flag(False, "no clustering margin declared")
    elif delta * delta == 0.0:
        d4 = Flag(False, f"declared margin {delta!r} underflows when squared")
    else:
        d4 = Flag(True, f"declared margin = {delta!r}")
    flags = {"D1": d1, "D2": d2, "D3": d3, "D4": d4}

    def gated_shut(output: str, detail: Optional[str] = None) -> bool:
        """Refuse ``output`` for its first failed prerequisite, if any; the
        detail is that flag's provenance unless ``detail`` is given."""
        for name in PREREQUISITES[output]:
            if not flags[name].passed:
                refusals.append({"output": output, "reason": FLAG_REASONS[name],
                                 "detail": detail or flags[name].provenance})
                return True
        return False

    gated_shut(
        "deviation_quantile",
        None if d_max is not None else "declare envelope.d_max to obtain a deviation quantile",
    )

    # Step 4: subspace region iff D1 and D2; the cluster and filtration
    # steps reuse it
    region = None
    if not gated_shut("subspace"):
        region = subspace_region(S, k, Envelope(d_max=d_max, gap=gap), alpha)
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
    scores = band = None
    if cent is not None:
        if not gated_shut("centrality_bands"):
            try:
                if cent.kind == "katz":
                    scores = katz_centrality(S, cent.beta)
                else:
                    scores, _ = eigenvector_centrality(S)
            except (OutsideDomain, DegenerateTopEigenvalue) as exc:
                refusals.append(
                    {"output": "centrality_bands",
                     "reason": "domain_violated_at_observation",
                     "detail": str(exc)}
                )
            if scores is not None:
                band = centrality_bands(
                    scores, L, q, alpha,
                    functional=(
                        f"katz(beta={cent.beta!r})" if cent.kind == "katz"
                        else "eigenvector"
                    ),
                    domain_certified=True,
                )
                outputs["centrality_bands"] = {
                    "functional": band.functional,
                    "half_width": band.half_width,
                    "alpha": alpha,
                    "domain_certified": True,
                    "point": band.point,
                }
        if config.selection_m is not None:
            if scores is not None:
                cert = stability_certificate(scores, config.selection_m, band.half_width)
                outputs["stability"] = {
                    "m": cert.m,
                    "observed_margin": cert.observed_margin,
                    "threshold": cert.threshold,
                    "certified": cert.certified,
                    "selected_set": (
                        list(cert.selected_set) if cert.selected_set is not None else None
                    ),
                }
            else:
                refusals.append(
                    {"output": "stability", "reason": "no_scores",
                     "detail": "stability needs certified centrality scores"}
                )
    elif config.selection_m is not None:
        refusals.append(
            {"output": "stability", "reason": "no_centrality_functional",
             "detail": "declare a centrality block to score the selection"}
        )

    del S  # free the n x n eigenvectors before the n x n distance matrices

    # Step 6: clustering region iff D1, D2 and D4
    if clus is not None and not gated_shut("cluster"):
        centers = (
            np.asarray(clus.centers, dtype=float)
            if clus.centers is not None
            else None
        )
        creg = cluster_region(region, delta, centers=centers, c_row=clus.c_row)
        outputs["cluster"] = {
            "labels": creg.labels,
            "hamming_radius": creg.hamming_radius,
            "alpha": alpha,
            "margin": creg.margin_used,
            "margin_provenance": creg.margin_provenance,
            "radius_route": creg.radius_route,
            "vacuous": creg.vacuous,
        }
        if creg.vacuous:
            outputs["cluster"]["note"] = (
                "hamming radius reached n: the ball is all assignments"
            )

    # fairness: certified feasibility via the centrality band
    no_band = "fairness certification needs a certified score band"
    if config.fairness is not None and not gated_shut("fairness", no_band):
        fc = config.fairness
        if scores is None:
            refusals.append({"output": "fairness", "reason": "no_scores", "detail": no_band})
        else:
            r_band = band.half_width
            if fc.epsilon < r_band / fc.tau:
                refusals.append(
                    {"output": "fairness", "reason": "insufficient_tolerance",
                     "detail": f"epsilon {fc.epsilon!r} < band slack "
                               f"{r_band / fc.tau!r}"}
                )
            else:
                problem = FairnessProblem(
                    x=scores,
                    y=np.asarray(fc.targets, dtype=float),
                    s=np.asarray(fc.groups, dtype=np.int64),
                    tau=fc.tau,
                    epsilon=fc.epsilon,
                )
                eff = fc.epsilon - r_band / fc.tau
                theta = fair_optimize(problem, eff)
                ok = feasibility_transfer_check(
                    theta, scores, problem.s, r_band, fc.tau, fc.epsilon
                )
                d_hat = logistic_decisions(problem.x, problem.s, problem.tau, theta)
                outputs["fairness"] = {
                    "theta": theta,
                    "certified": bool(ok),
                    "parity_gap_at_scores": parity_gap(d_hat, problem.s),
                    "effective_epsilon": eff,
                    "band_radius": r_band,
                    "loss": quadratic_loss(d_hat, problem.y),
                }

    # filtration envelope of the observed embedding rows
    if config.filtration is not None:
        c_row = clus.c_row if clus is not None else None
        if c_row is None:
            refusals.append({"output": "filtration", "reason": "no_rowwise_certificate",
                             "detail": "declare clustering.c_row"})
        elif not gated_shut("filtration"):
            eta = c_row * region.radius
            if not math.isfinite(eta):
                refusals.append({"output": "filtration", "reason": "no_rowwise_certificate",
                                 "detail": f"c_row * radius = {eta!r}"})
            else:
                D = distance_matrix(region.center.U)
                # one embedding on both sides: the inclusion flags hold trivially
                snaps = [
                    {key: val for key, val in asdict(snap).items()
                     if not key.endswith("_included")}
                    for snap in threshold_snapshots(D, D, eta, config.filtration.t_grid)
                ]
                outputs["filtration"] = {
                    "eta": eta,
                    "t_grid": list(config.filtration.t_grid),
                    "snapshots": snaps,
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
            "c_row": clus.c_row if clus is not None else None,
            "centrality_domain": domain_ok,
            "provenance": gap_source,
        },
        quantile=q,
        outputs=outputs,
        refusals=tuple(refusals),
        diagnostics=diagnostics,
    )

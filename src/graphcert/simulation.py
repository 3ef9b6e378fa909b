"""Monte Carlo coverage experiments, inequality audits, and counterexamples.

The coverage harness samples seeded replications from a known model, runs
:func:`run_protocol` on each sample with oracle certificates computed from
the true P (or declared ones, to test robustness to over-declared
envelopes), scores the report's outputs against ground truth, and audits
every implemented deterministic inequality on every sample with zero
tolerance for violations beyond floating-point slack.

The counterexamples are constructive: a tie at the top-m threshold is
flipped by an arbitrarily small perturbation, and an eigenvalue collision
yields two admissible top-k subspaces at Grassmann distance 1, so any
covering region is vacuous and the protocol's refusal is forced.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import NoTiePresent, OutsideDomain, TooSmall
from .concentration import davis_kahan_radius, deviation_quantile, variance_proxy
from .downstream import (
    feasibility_transfer_check,
    filtration_envelope,
    logistic_decisions,
    parity_gap,
    ridge_risk,
    ridge_risk_bound,
    tradeoff_bounds,
)
from .inference import (
    CONTAIN_TOL,
    CentralityBand,
    center_separation,
    eigenvector_centrality,
    eigenvector_modulus,
    in_katz_domain,
    katz_centrality,
    katz_domain_limit,
    katz_modulus,
    nearest_center_round,
    perm_hamming_distance,
    rounding_error_bound,
    top_m_selection,
)
from .linalg import (
    OrthonormalBasis,
    eigendecompose,
    grassmann_distance,
    procrustes_align,
    symmetric_operator_norm,
)
from .models import (
    Envelope,
    ProbabilityModel,
    SBMSpec,
    build_probability_matrix,
    expected_degree_bound,
    require_finite,
    sample_adjacency,
)
from .protocol import (
    FLAG_REASONS,
    CentralityConfig,
    ClusteringConfig,
    ProtocolConfig,
    run_protocol,
)

__all__ = [
    "CoverageConfig",
    "ClaimResult",
    "AuditResult",
    "CoverageResult",
    "coverage_experiment",
    "tie_counterexample",
    "collision_instance",
    "ModulusAuditResult",
    "modulus_audit",
    "replication_seed",
]

ALL_CLAIMS = ("deviation", "subspace", "cluster", "centrality")
# claim -> the report output that states it, and {extra key: output key}
_CLAIM_OUTPUTS = {
    "subspace": ("subspace", {"radius": "radius", "informative": "informative"}),
    "cluster": ("cluster", {"hamming_radius": "hamming_radius", "route": "radius_route",
                            "margin": "margin"}),
    "centrality": ("centrality_bands", {"half_width": "half_width"}),
}
AUDITS = (
    "davis_kahan",
    "rounding_uniform",
    "rounding_mean_square",
    "selection_stability",
    "ridge_risk",
    "fairness_transfer",
    "fairness_tradeoff",
    "filtration",
)
_AUDIT_TOL = 1e-9
# fixed audit parameters: selection size, ridge penalty, fairness temperature
_SELECTION_M = 1
_RIDGE_LAMBDA = 1.0
_FAIRNESS_TAU = 0.25


def replication_seed(base_seed: int, index: int) -> int:
    """Independent per-replication seed: base seed hashed with the index.

    Deterministic under any execution order or thread count.
    """
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class CoverageConfig:
    """What to validate and which certificates to use.

    With ``envelope`` None the d_max and gap certificates are the oracle
    ones computed from the true P (separates "is the guarantee true" from
    "did the user declare good certificates"); a declared ``envelope``,
    e.g. an over-declared d_max, is used exactly as given.
    """

    k: int
    alpha: float
    claims: tuple = ALL_CLAIMS
    envelope: Optional[Envelope] = None
    katz_beta: Optional[float] = None   # default 1/(4 rho(P))
    delta: Optional[float] = None       # default: population margin
    c_row: Optional[float] = None       # enables the uniform rounding branch
    audit_inequalities: bool = True

    def __post_init__(self):
        require_finite(
            alpha=self.alpha, katz_beta=self.katz_beta, delta=self.delta, c_row=self.c_row
        )
        unknown = set(self.claims) - set(ALL_CLAIMS)
        if unknown:
            raise ValueError(f"unknown claims: {sorted(unknown)}")


@dataclass(frozen=True)
class ClaimResult:
    replications: int
    hits: int
    coverage: float
    evaluated: bool
    refused: bool = False
    reason: str = ""
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AuditResult:
    trials: int
    violations: int


@dataclass(frozen=True)
class CoverageResult:
    """Per-claim empirical coverage over seeded replications.

    A refused claim makes no statement and therefore cannot miss; it is
    reported with vacuous coverage 1.0 and ``refused`` set, never hidden.
    The top-level hit count is the conjunction over evaluated claims. The
    coverage JSON is :func:`dataclasses.asdict` of this record: its keys,
    and those of each claim and audit, are the record fields.
    """

    replications: int
    hits: int
    empirical_coverage: float
    target: float
    binomial_sd: float
    alpha: float
    base_seed: int
    claims: dict            # name -> ClaimResult
    audits: dict            # name -> AuditResult

    def to_dict(self) -> dict:
        return asdict(self)


def _ground_truth_clusters(model: ProbabilityModel, U_star: OrthonormalBasis):
    """Ground-truth labels, centers and margin of an SBM population embedding."""
    if not isinstance(model.spec, SBMSpec):
        return None
    labels = model.spec.labels
    K = model.spec.B.shape[0]
    if K < 2:
        return None  # a single block has no separation margin
    centers = np.zeros((K, U_star.k))
    for a in range(K):
        mask = labels == a
        if not mask.any():
            return None
        centers[a] = U_star.U[mask].mean(axis=0)
    return labels, centers, center_separation(centers)


def coverage_experiment(
    model: ProbabilityModel,
    config: CoverageConfig,
    replications: int,
    base_seed: int,
) -> CoverageResult:
    """Validate every enabled coverage claim on seeded samples of a model.

    Each sample goes through :func:`run_protocol` with the oracle or the
    declared ``config.envelope``, and the report's outputs are scored
    against the truth from P, so the harness validates the gates and the
    formulas that write reports. A claim is refused with the reason its
    report output is refused with. A sample whose report refuses the
    centrality band at observation (the observed graph lies outside the
    Katz domain) states no band, so it cannot miss: it counts as a hit of
    the centrality claim, has no outcome in the joint hit, and is counted
    in the claim's ``extra["refused_at_observation"]`` when there is one.
    """
    if replications < 1:
        raise ValueError("coverage experiments need at least one replication")
    P = model.P
    n = model.n
    k = config.k
    alpha = config.alpha
    audit = config.audit_inequalities

    S_P = eigendecompose(P)
    U_star = S_P.top_k(k)
    gap_true = S_P.gap(k)

    envelope = config.envelope
    if envelope is None:
        envelope = Envelope(d_max=expected_degree_bound(model), gap=gap_true)

    # deviation claim: sharp variance-proxy quantile
    q_dev = deviation_quantile(variance_proxy(P).v, n, alpha).q

    # clustering ground truth
    clusters = _ground_truth_clusters(model, U_star)
    delta = config.delta
    if delta is None and clusters is not None:
        delta = clusters[2]
    clustering = None
    if "cluster" in config.claims and clusters is not None:
        clustering = ClusteringConfig(
            delta=delta, centers=tuple(map(tuple, clusters[1])), c_row=config.c_row
        )

    # centrality ground truth; the domain is certified iff P lies in it
    centrality = true_scores = None
    if "centrality" in config.claims:
        beta = config.katz_beta
        if beta is None:
            beta = 1.0 / (4.0 * S_P.radius) if S_P.radius > 0 else 1.0
        try:
            true_scores = katz_centrality(S_P, beta)
        except OutsideDomain:
            pass
        centrality = CentralityConfig(
            kind="katz", beta=beta, domain_certified=true_scores is not None
        )

    protocol = None
    if audit or "subspace" in config.claims or centrality is not None or clustering is not None:
        protocol = ProtocolConfig(
            k=k,
            alpha=alpha,
            envelope=envelope,
            centrality=centrality,
            clustering=clustering,
            selection_m=_SELECTION_M if audit and centrality is not None else None,
        )

    # fixed auxiliary data for the downstream audits
    aux = np.random.default_rng(
        np.random.SeedSequence(entropy=base_seed, spawn_key=(replications,))
    )
    y_ridge = aux.normal(size=n)
    y01 = np.clip(np.abs(y_ridge) / (1.0 + np.abs(y_ridge)), 0.0, 1.0)
    if clusters is not None and len(np.unique(clusters[0])) == 2:
        s_attr = (clusters[0] == clusters[0][0]).astype(np.int64)
    else:
        s_attr = (np.arange(n) >= n // 2).astype(np.int64)

    refusal_reasons: dict = {}
    if "cluster" in config.claims and clusters is None:
        refusal_reasons["cluster"] = "no ground-truth clusters"
    hits = dict.fromkeys(config.claims, 0)
    extra: dict = {name: {} for name in config.claims}
    extra["deviation"] = {"quantile": q_dev}
    joint_hits = refused_at_observation = 0
    trials = dict.fromkeys(AUDITS, 0)
    violations = dict.fromkeys(AUDITS, 0)

    def tally(name: str, violated: bool) -> None:
        trials[name] += 1
        violations[name] += bool(violated)

    for rep in range(replications):
        A = sample_adjacency(model, replication_seed(base_seed, rep))
        report = run_protocol(A, protocol) if protocol is not None else None
        outputs = report.outputs if report is not None else {}
        if rep == 0:
            # the flags read only the certificates, so every report shares
            # these gate refusals; a sample outside the Katz domain is
            # refused at observation and scored per sample below
            gated = {} if report is None else {
                r["output"]: r["reason"] for r in report.refusals
                if r["reason"] in FLAG_REASONS.values()
            }
            for name, (output, _) in _CLAIM_OUTPUTS.items():
                if name in config.claims and output in gated:
                    refusal_reasons.setdefault(name, gated[output])
            evaluated = set(config.claims) - set(refusal_reasons)
            if not audit and not evaluated & _CLAIM_OUTPUTS.keys():
                protocol = None  # no later report would be read
        for name in evaluated & _CLAIM_OUTPUTS.keys():
            output, fields = _CLAIM_OUTPUTS[name]
            if not extra[name] and output in outputs:
                extra[name] = {key: outputs[output][src] for key, src in fields.items()}

        dev = None
        if "deviation" in config.claims or audit:
            dev = symmetric_operator_norm(A.A - P)
        sub = outputs.get("subspace")
        U_hat = OrthonormalBasis(sub["center"]) if sub is not None else None
        band = outputs.get("centrality_bands")
        scores_hat = band["point"] if band is not None else None

        outcome = {}
        if "deviation" in config.claims:
            outcome["deviation"] = dev <= q_dev
        if "subspace" in evaluated:
            outcome["subspace"] = grassmann_distance(U_star, U_hat) <= sub["radius"] + CONTAIN_TOL
        if "cluster" in evaluated:
            creg = outputs["cluster"]
            outcome["cluster"] = (
                perm_hamming_distance(creg["labels"], clusters[0]) <= creg["hamming_radius"]
            )
        if "centrality" in evaluated:
            if band is None:
                # the only refusal past the gates: refused at observation,
                # no band is stated, so none can miss
                refused_at_observation += 1
                hits["centrality"] += 1
            else:
                outcome["centrality"] = CentralityBand(**band).contains(true_scores)
        for name, hit in outcome.items():
            hits[name] += bool(hit)
        # refused claims have no outcome, so this is the conjunction over
        # the evaluated claims (vacuously true when none are evaluable)
        joint_hits += all(outcome.values())

        if not audit:
            continue

        # ------------------------------------------------------------------
        # deterministic inequality audits, per sample
        if U_hat is None:  # the report has no region: decompose for the basis
            U_hat = eigendecompose(A.A).top_k(k)
        d_gr = grassmann_distance(U_hat, U_star)
        if gap_true > 0:
            tally("davis_kahan", d_gr > davis_kahan_radius(dev, gap_true).radius + _AUDIT_TOL)

        _, aligned = procrustes_align(U_hat, U_star)
        row_err = np.linalg.norm(aligned.U - U_star.U, axis=1)
        if clusters is not None and delta is not None and delta > 0:
            g_star, centers, _ = clusters
            mislabels = int(np.sum(nearest_center_round(aligned.U, centers) != g_star))
            if rounding_error_bound(float(row_err.max()), delta, n).exact:
                tally("rounding_uniform", mislabels != 0)
            eta_ms = math.sqrt(float(np.mean(row_err**2)))
            tally(
                "rounding_mean_square",
                mislabels > rounding_error_bound(eta_ms, delta, n).hamming_bound,
            )

        stability = outputs.get("stability")
        if stability is not None and stability["certified"] and dev <= report.quantile:
            sel_true = top_m_selection(true_scores, _SELECTION_M)
            tally(
                "selection_stability",
                not (sel_true.unique and sel_true.sets[0] == tuple(stability["selected_set"])),
            )

        lam = _RIDGE_LAMBDA
        gap_risk = abs(ridge_risk(U_hat, y_ridge, lam) - ridge_risk(U_star, y_ridge, lam))
        tally("ridge_risk", gap_risk > ridge_risk_bound(y_ridge, lam, d_gr, n) + _AUDIT_TOL)

        if scores_hat is not None and outcome["centrality"]:
            band_width = band["half_width"]
            # keep the slack epsilon - r/tau attainable: widen the
            # temperature if the band dwarfs the fixed one
            tau_t = max(_FAIRNESS_TAU, 2.0 * band_width)
            eps = min(1.0, band_width / tau_t + 0.05)
            for theta0 in np.quantile(scores_hat, [0.25, 0.5, 0.75]):
                theta = np.array([theta0, theta0])
                if feasibility_transfer_check(theta, scores_hat, s_attr, band_width, tau_t, eps):
                    d_true = logistic_decisions(true_scores, s_attr, tau_t, theta)
                    tally("fairness_transfer", parity_gap(d_true, s_attr) > eps + _AUDIT_TOL)

        if scores_hat is not None:
            med = float(np.median(scores_hat))
            shift = 0.3
            d_a = logistic_decisions(scores_hat, s_attr, _FAIRNESS_TAU, [med, med])
            d_b = logistic_decisions(scores_hat, s_attr, _FAIRNESS_TAU, [med + shift, med + shift])
            tradeoff = tradeoff_bounds(d_a, d_b, y01, _FAIRNESS_TAU, shift)
            tally("fairness_tradeoff", tradeoff.l2_exceeded or tradeoff.shift_exceeded)

        filt = filtration_envelope(aligned.U, U_star.U, ())
        tally("filtration", filt.d_filt > 2.0 * filt.eta + _AUDIT_TOL)

    if refused_at_observation:
        extra["centrality"]["refused_at_observation"] = refused_at_observation
    claims = {}
    for name in config.claims:
        refused = name in refusal_reasons
        claims[name] = ClaimResult(
            replications=replications,
            hits=replications if refused else int(hits[name]),
            coverage=1.0 if refused else hits[name] / replications,
            evaluated=not refused,
            refused=refused,
            reason=refusal_reasons.get(name, ""),
            extra=extra[name],
        )

    return CoverageResult(
        replications=replications,
        hits=int(joint_hits),
        empirical_coverage=joint_hits / replications,
        target=1.0 - alpha,
        binomial_sd=math.sqrt(alpha * (1.0 - alpha) / replications),
        alpha=alpha,
        base_seed=int(base_seed),
        claims=claims,
        audits={
            name: AuditResult(trials=trials[name], violations=violations[name])
            for name in AUDITS
        },
    )


# ---------------------------------------------------------------------------
# constructive counterexamples

def tie_counterexample(x, m: int, eps: float) -> np.ndarray:
    """Flip a tied top-m selection with an arbitrarily small perturbation.

    Requires at least two admissible top-m sets. The tied scores at the
    threshold are split by +-eps so that the perturbed vector has a unique
    top-m set excluding a previously admissible member, witnessing
    instability for every eps > 0.
    """
    x = np.asarray(x, dtype=float)
    if eps <= 0:
        raise ValueError("eps must be positive")
    sel = top_m_selection(x, m)
    if sel.num_admissible < 2:
        raise NoTiePresent("the top-m selection is already unique")
    order = np.argsort(-x, kind="stable")
    t = x[order[m - 1]]
    sure = np.flatnonzero(x > t)
    tied = np.flatnonzero(x == t)
    slots = m - sure.size
    promote = tied[-slots:]            # last tied indices are pushed up
    demote = np.setdiff1d(tied, promote)
    x_new = x.copy()
    x_new[promote] += eps
    x_new[demote] -= eps
    return x_new


def collision_instance(n: int, k: int, delta: float = 0.0):
    """A valid probability matrix with an eigenvalue collision at the cutoff.

    k+1 identical diagonal blocks at probability 1/2 give a top eigenvalue
    of multiplicity k+1, so lambda_k = lambda_{k+1} and two admissible
    top-k subspaces (blocks 1..k vs blocks 2..k+1) sit at Grassmann
    distance 1: any region covering both has diameter >= 1 and is vacuous.
    A positive ``delta`` staggers the block intensities and breaks the
    collision with gap_k proportional to delta (radius ~ 1/delta sweeps).

    Returns (model, U_a, U_b).
    """
    if n < 2 * k + 2:
        raise TooSmall(f"need n >= 2k + 2 = {2 * k + 2}, got {n}")
    if delta < 0 or (k > 0 and delta > 1.0 / k):
        raise ValueError(f"delta must lie in [0, {1.0 / k if k else 1.0}]")
    b = n // (k + 1)
    c = 0.5
    probs = [c * (1.0 + delta * (k - j)) for j in range(k + 1)]
    leftover = n - b * (k + 1)
    K = k + 1 + (1 if leftover else 0)
    B = np.zeros((K, K))
    for j, p in enumerate(probs):
        B[j, j] = p
    labels = np.repeat(np.arange(k + 1), b)
    if leftover:
        labels = np.concatenate([labels, np.full(leftover, k + 1)])
    model = build_probability_matrix(SBMSpec(labels=labels, B=B))

    def _block_basis(first: int) -> OrthonormalBasis:
        U = np.zeros((n, k))
        for col, j in enumerate(range(first, first + k)):
            U[j * b : (j + 1) * b, col] = 1.0 / math.sqrt(b)
        return OrthonormalBasis(U=U)

    return model, _block_basis(0), _block_basis(1)


@dataclass(frozen=True)
class ModulusAuditResult:
    functional: str
    trials: int
    max_ratio_2: float
    max_ratio_inf: float
    stated_modulus_2: float
    stated_modulus_inf: float


def modulus_audit(
    functional,
    domain_samples: Sequence[np.ndarray],
    perturbation_scale: float,
    trials: int,
    seed: int = 0,
) -> ModulusAuditResult:
    """Empirically measure a centrality functional's perturbation moduli.

    ``functional`` is ("katz", beta) or ("eigenvector",). Every sample must
    lie in the functional's certified domain with room for the perturbation
    scale, otherwise :class:`OutsideDomain` is raised. Reports the largest
    observed ratio ||c(M) - c(M')|| / ||M - M'|| in both the 2-norm and the
    max-norm, next to the stated moduli.
    """
    if perturbation_scale <= 0:
        raise ValueError("perturbation scale must be positive")
    kind = functional[0]
    rng = np.random.default_rng(seed)
    max2 = maxinf = 0.0
    count = 0
    stated2 = statedinf = 0.0
    for M in domain_samples:
        S = eigendecompose(M)
        n = S.n
        if kind == "katz":
            beta = float(functional[1])
            if not in_katz_domain(S.radius + perturbation_scale, beta):
                raise OutsideDomain(S.radius + perturbation_scale, katz_domain_limit(beta))
            base = katz_centrality(S, beta)
            stated2 = max(stated2, katz_modulus(beta) * math.sqrt(n))
            statedinf = max(statedinf, katz_modulus(beta))
        elif kind == "eigenvector":
            base, gamma = eigenvector_centrality(S)
            if 2.0 * perturbation_scale >= gamma:
                raise OutsideDomain(2.0 * perturbation_scale, gamma)
            stated2 = max(stated2, eigenvector_modulus(gamma))
            statedinf = max(statedinf, eigenvector_modulus(gamma))
        else:
            raise ValueError(f"unknown functional {kind!r}")
        for _ in range(trials):
            E = rng.normal(size=(n, n))
            E = (E + E.T) / 2.0
            E *= perturbation_scale / symmetric_operator_norm(E)
            Sp = eigendecompose(S.matrix + E)
            if kind == "katz":
                pert = katz_centrality(Sp, beta)
            else:
                pert, _ = eigenvector_centrality(Sp)
            diff = pert - base
            max2 = max(max2, float(np.linalg.norm(diff)) / perturbation_scale)
            maxinf = max(maxinf, float(np.max(np.abs(diff))) / perturbation_scale)
            count += 1
    return ModulusAuditResult(
        functional=kind,
        trials=count,
        max_ratio_2=max2,
        max_ratio_inf=maxinf,
        stated_modulus_2=stated2,
        stated_modulus_inf=statedinf,
    )

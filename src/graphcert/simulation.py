"""Monte Carlo coverage experiments, inequality audits, and counterexamples.

The coverage harness samples seeded replications from a known model,
evaluates every enabled claim against ground truth (oracle certificates
computed from the true P, or declared ones to test robustness to
over-declared envelopes), and audits every implemented deterministic
inequality on every sample with zero tolerance for violations beyond
floating-point slack.

The counterexamples are constructive: a tie at the top-m threshold is
flipped by an arbitrarily small perturbation, and an eigenvalue collision
yields two admissible top-k subspaces at Grassmann distance 1, so any
covering region is vacuous and the protocol's refusal is forced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import NonpositiveGap, NoTiePresent, OutsideDomain, QuantileOverflow, TooSmall
from .concentration import (
    davis_kahan_radius,
    deviation_quantile,
    deviation_quantile_from_envelope,
    variance_proxy,
)
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
    CertificateSet,
    centrality_bands,
    cluster_hamming_radius,
    cluster_region,
    eigenvector_centrality,
    katz_centrality,
    katz_modulus,
    nearest_center_round,
    region_contains,
    rounding_error_bound,
    stability_certificate,
    subspace_region,
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
    ProbabilityModel,
    SBMSpec,
    build_probability_matrix,
    expected_degree_bound,
    require_finite,
    sample_adjacency,
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


def replication_seed(base_seed: int, index: int) -> int:
    """Independent per-replication seed: base seed hashed with the index.

    Deterministic under any execution order or thread count.
    """
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class CoverageConfig:
    """What to validate and which certificates to use.

    ``mode`` "oracle" computes certificates from the true P (separates "is
    the guarantee true" from "did the user declare good certificates");
    "declared" uses the supplied envelope, e.g. an over-declared d_max.
    """

    k: int
    alpha: float
    claims: tuple = ALL_CLAIMS
    mode: str = "oracle"
    declared_d_max: Optional[float] = None
    declared_gap: Optional[float] = None
    katz_beta: Optional[float] = None   # default 1/(4 rho(P))
    delta: Optional[float] = None       # default: population margin
    c_row: Optional[float] = None       # enables the uniform rounding branch
    selection_m: int = 1
    ridge_lambda: float = 1.0
    fairness_tau: float = 0.25
    audit_inequalities: bool = True

    def __post_init__(self):
        require_finite(
            alpha=self.alpha,
            declared_d_max=self.declared_d_max,
            declared_gap=self.declared_gap,
            katz_beta=self.katz_beta,
            delta=self.delta,
            c_row=self.c_row,
            ridge_lambda=self.ridge_lambda,
            fairness_tau=self.fairness_tau,
        )
        if self.mode not in ("oracle", "declared"):
            raise ValueError("mode must be 'oracle' or 'declared'")
        unknown = set(self.claims) - set(ALL_CLAIMS)
        if unknown:
            raise ValueError(f"unknown claims: {sorted(unknown)}")


@dataclass(frozen=True)
class ClaimResult:
    name: str
    replications: int
    hits: int
    coverage: float
    evaluated: bool
    refused: bool = False
    reason: str = ""
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AuditResult:
    name: str
    trials: int
    violations: int


@dataclass(frozen=True)
class CoverageResult:
    """Per-claim empirical coverage over seeded replications.

    A refused claim makes no statement and therefore cannot miss; it is
    reported with vacuous coverage 1.0 and ``refused`` set, never hidden.
    The top-level hit count is the conjunction over evaluated claims.
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
        return {
            "replications": self.replications,
            "hits": self.hits,
            "empirical_coverage": self.empirical_coverage,
            "target": self.target,
            "binomial_sd": self.binomial_sd,
            "alpha": self.alpha,
            "base_seed": self.base_seed,
            "claims": {
                name: {
                    "replications": c.replications,
                    "hits": c.hits,
                    "coverage": c.coverage,
                    "evaluated": c.evaluated,
                    "refused": c.refused,
                    "reason": c.reason,
                    "extra": c.extra,
                }
                for name, c in self.claims.items()
            },
            "audits": {
                name: {"trials": a.trials, "violations": a.violations}
                for name, a in self.audits.items()
            },
        }


def _population_clusters(model: ProbabilityModel, U_star: OrthonormalBasis):
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
    dmin = np.inf
    for a in range(K):
        for b in range(a + 1, K):
            dmin = min(dmin, float(np.linalg.norm(centers[a] - centers[b])))
    return labels, centers, dmin


def coverage_experiment(
    model: ProbabilityModel,
    config: CoverageConfig,
    replications: int,
    base_seed: int,
) -> CoverageResult:
    """Validate every enabled coverage claim on seeded samples of a model.

    Each claim and each audit calls the function that owns its formula:
    the claims are checked with :func:`subspace_region`,
    :func:`cluster_region` and :func:`centrality_bands`, so the harness
    validates the code that writes reports.
    """
    if model.P is None:
        raise ValueError("coverage experiments need a model with known P")
    P = model.P
    n = model.n
    k = config.k
    alpha = config.alpha
    audit = config.audit_inequalities

    S_P = eigendecompose(P)
    U_star = S_P.top_k(k)
    gap_true = S_P.gap(k)
    rho_P = S_P.radius

    if config.mode == "oracle":
        d_max_cert = expected_degree_bound(model)
        gap_cert = gap_true
    else:
        d_max_cert = config.declared_d_max
        gap_cert = config.declared_gap
    certs = CertificateSet(d_max=d_max_cert, gap=gap_cert, provenance=config.mode)

    # deviation claim: sharp variance-proxy quantile
    q_dev = deviation_quantile(variance_proxy(P).v, n, alpha).q

    # envelope quantile and region radius (certificate route)
    q_env = dk = None
    if d_max_cert is not None:
        try:
            q_env = deviation_quantile_from_envelope(d_max_cert, n, alpha).q
        except QuantileOverflow:
            pass  # no envelope: every claim that needs q is refused
        if q_env is not None and gap_cert is not None:
            try:
                dk = davis_kahan_radius(q_env, gap_cert)
            except NonpositiveGap:
                pass  # no radius: the subspace and cluster claims are refused

    # clustering ground truth
    clusters = _population_clusters(model, U_star)
    delta = config.delta
    if delta is None and clusters is not None:
        delta = clusters[2]
    hamming = None
    if dk is not None and delta is not None and delta > 0:
        hamming = cluster_hamming_radius(dk.radius, k, delta, n, config.c_row)

    # centrality ground truth
    beta = config.katz_beta
    if beta is None:
        beta = 1.0 / (4.0 * rho_P) if rho_P > 0 else 1.0
    L_katz = katz_modulus(beta)
    try:
        true_scores = katz_centrality(S_P, beta)
    except OutsideDomain:
        true_scores = None
    band_width = None
    if true_scores is not None and q_env is not None:
        band_width = centrality_bands(true_scores, L_katz, q_env, alpha).half_width

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
    tau = config.fairness_tau

    # which claims are evaluable, and why not
    refusal_reasons: dict = {}
    if "subspace" in config.claims and dk is None:
        refusal_reasons["subspace"] = "no certificate (d_max or positive gap missing)"
    if "cluster" in config.claims and hamming is None:
        refusal_reasons["cluster"] = (
            "no certificate (needs d_max, positive gap and a positive margin)"
        )
    elif "cluster" in config.claims and clusters is None:
        refusal_reasons["cluster"] = "no ground-truth clusters"
    if "centrality" in config.claims and band_width is None:
        refusal_reasons["centrality"] = (
            "no certificate (katz domain or degree envelope missing)"
        )
    evaluated = set(config.claims) - set(refusal_reasons)

    hits = {name: 0 for name in config.claims}
    extra: dict = {name: {} for name in config.claims}
    joint_hits = 0
    trials = dict.fromkeys(AUDITS, 0)
    violations = dict.fromkeys(AUDITS, 0)

    def tally(name: str, violated: bool) -> None:
        trials[name] += 1
        violations[name] += bool(violated)

    if dk is not None:
        extra.setdefault("subspace", {})["radius"] = dk.radius
        extra["subspace"]["informative"] = dk.informative
    if hamming is not None:
        extra.setdefault("cluster", {})["hamming_radius"] = hamming[0]
        extra["cluster"]["route"] = hamming[1]
        extra["cluster"]["margin"] = delta
    if band_width is not None:
        extra.setdefault("centrality", {})["half_width"] = band_width
    extra.setdefault("deviation", {})["quantile"] = q_dev

    for rep in range(replications):
        A = sample_adjacency(model, replication_seed(base_seed, rep))

        # one decomposition of the sample, made only when something reads it
        S = eigendecompose(A.A) if audit or evaluated - {"deviation"} else None
        region = U_hat = None
        if dk is not None and (audit or evaluated & {"subspace", "cluster"}):
            region = subspace_region(S, k, certs, alpha)
            U_hat = region.center
        elif audit:
            U_hat = S.top_k(k)

        dev = None
        if "deviation" in config.claims or audit:
            dev = symmetric_operator_norm(A.A - P)

        outcome = {}
        if "deviation" in config.claims:
            outcome["deviation"] = dev <= q_dev
        if "subspace" in evaluated:
            outcome["subspace"] = region_contains(U_star, region)
        if "cluster" in evaluated:
            creg = cluster_region(region, delta, centers=clusters[1], c_row=config.c_row)
            outcome["cluster"] = creg.contains(clusters[0])
        scores_hat = None
        if "centrality" in evaluated:
            try:
                scores_hat = katz_centrality(S, beta)
            except OutsideDomain:
                scores_hat = None  # refusal on this sample counts as a miss
            outcome["centrality"] = scores_hat is not None and centrality_bands(
                scores_hat, L_katz, q_env, alpha
            ).contains(true_scores)
        for name, hit in outcome.items():
            hits[name] += bool(hit)
        # refused claims have no outcome, so this is the conjunction over
        # the evaluated claims (vacuously true when none are evaluable)
        joint_hits += all(outcome.values())

        if not audit:
            continue

        # ------------------------------------------------------------------
        # deterministic inequality audits, per sample
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

        if scores_hat is not None and dev <= q_env:
            cert = stability_certificate(scores_hat, config.selection_m, L_katz, q_env)
            if cert.certified:
                sel_true = top_m_selection(true_scores, config.selection_m)
                tally(
                    "selection_stability",
                    not (sel_true.unique and sel_true.sets[0] == cert.selected_set),
                )

        lam = config.ridge_lambda
        gap_risk = abs(ridge_risk(U_hat, y_ridge, lam) - ridge_risk(U_star, y_ridge, lam))
        tally("ridge_risk", gap_risk > ridge_risk_bound(y_ridge, lam, d_gr, n) + _AUDIT_TOL)

        if scores_hat is not None and outcome["centrality"]:
            # keep the slack epsilon - r/tau attainable: widen the
            # temperature if the band dwarfs the configured one
            tau_t = max(tau, 2.0 * band_width)
            eps = min(1.0, band_width / tau_t + 0.05)
            for theta0 in np.quantile(scores_hat, [0.25, 0.5, 0.75]):
                theta = np.array([theta0, theta0])
                if feasibility_transfer_check(theta, scores_hat, s_attr, band_width, tau_t, eps):
                    d_true = logistic_decisions(true_scores, s_attr, tau_t, theta)
                    tally("fairness_transfer", parity_gap(d_true, s_attr) > eps + _AUDIT_TOL)

        if scores_hat is not None:
            med = float(np.median(scores_hat))
            shift = 0.3
            d_a = logistic_decisions(scores_hat, s_attr, tau, [med, med])
            d_b = logistic_decisions(scores_hat, s_attr, tau, [med + shift, med + shift])
            try:
                tradeoff_bounds(d_a, d_b, y01, tau, shift)
                violated = False
            except AssertionError:  # raised when either bound is exceeded
                violated = True
            tally("fairness_tradeoff", violated)

        filt = filtration_envelope(aligned.U, U_star.U, ())
        tally("filtration", filt.d_filt > 2.0 * filt.eta + _AUDIT_TOL)

    claims = {}
    for name in config.claims:
        if name in refusal_reasons:
            claims[name] = ClaimResult(
                name=name,
                replications=replications,
                hits=replications,
                coverage=1.0,
                evaluated=False,
                refused=True,
                reason=refusal_reasons[name],
                extra=extra.get(name, {}),
            )
        else:
            claims[name] = ClaimResult(
                name=name,
                replications=replications,
                hits=int(hits[name]),
                coverage=hits[name] / replications if replications else 1.0,
                evaluated=True,
                extra=extra.get(name, {}),
            )

    return CoverageResult(
        replications=replications,
        hits=int(joint_hits),
        empirical_coverage=joint_hits / replications if replications else 1.0,
        target=1.0 - alpha,
        binomial_sd=math.sqrt(alpha * (1.0 - alpha) / replications)
        if replications
        else 0.0,
        alpha=alpha,
        base_seed=int(base_seed),
        claims=claims,
        audits={
            name: AuditResult(name=name, trials=trials[name], violations=violations[name])
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
    spec = SBMSpec.from_labels(labels, B)
    model = build_probability_matrix(spec)

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
            limit = 1.0 / (2.0 * beta)
            if S.radius + perturbation_scale > limit * (1.0 + 1e-12):
                raise OutsideDomain(S.radius + perturbation_scale, limit)
            base = katz_centrality(S, beta)
            stated2 = max(stated2, 4.0 * beta * math.sqrt(n))
            statedinf = max(statedinf, 4.0 * beta)
        elif kind == "eigenvector":
            base, gamma = eigenvector_centrality(S)
            if 2.0 * perturbation_scale >= gamma:
                raise OutsideDomain(2.0 * perturbation_scale, gamma)
            stated2 = max(stated2, 2.0 / gamma)
            statedinf = max(statedinf, 2.0 / gamma)
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

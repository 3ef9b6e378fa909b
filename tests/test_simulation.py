import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphcert import (
    NoTiePresent,
    OutsideDomain,
    TooSmall,
    collision_instance,
    coverage_experiment,
    grassmann_distance,
    modulus_audit,
    tie_counterexample,
    top_m_selection,
)
from graphcert import (
    RDPGSpec,
    SBMSpec,
    build_probability_matrix,
    centrality_bands,
    cluster_region,
    eigendecompose,
    expected_degree_bound,
    katz_centrality,
    katz_modulus,
    sample_adjacency,
    subspace_region,
    two_block_sbm,
)
import graphcert.simulation
from graphcert import run_protocol
from graphcert.models import Envelope
from graphcert.protocol import CentralityConfig, ClusteringConfig, ProtocolConfig
from graphcert.simulation import CoverageConfig, replication_seed

from conftest import non_finite_reals, with_extreme_floats


def _coverage_config(**fields):
    """A CoverageConfig whose declared_d_max / declared_gap fields, when
    given, make up its declared envelope."""
    declared = {
        name: fields.pop(f"declared_{name}")
        for name in ("d_max", "gap")
        if f"declared_{name}" in fields
    }
    return CoverageConfig(envelope=Envelope(**declared) if declared else None, **fields)


def test_replication_seeds_are_distinct_and_stable():
    seeds = [replication_seed(7, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert seeds == [replication_seed(7, i) for i in range(100)]
    assert replication_seed(8, 0) != replication_seed(7, 0)


def test_coverage_reproducible(sbm200):
    config = CoverageConfig(k=2, alpha=0.2, claims=("deviation",))
    a = coverage_experiment(sbm200, config, 20, base_seed=3)
    b = coverage_experiment(sbm200, config, 20, base_seed=3)
    assert a.to_dict() == b.to_dict()
    c = coverage_experiment(sbm200, config, 20, base_seed=4)
    assert a.to_dict() != c.to_dict()


def test_degenerate_model_full_coverage():
    from graphcert import SBMSpec, build_probability_matrix

    model = build_probability_matrix(SBMSpec.from_labels([0] * 6, [[0.0]]))
    config = CoverageConfig(k=1, alpha=0.1)
    result = coverage_experiment(model, config, 25, base_seed=0)
    for name, claim in result.claims.items():
        assert claim.coverage == 1.0, name
    # the impossible claims are refusals, flagged as such, never hidden
    assert result.claims["subspace"].refused
    assert result.claims["cluster"].refused
    assert not result.claims["deviation"].refused
    assert result.empirical_coverage == 1.0


def test_small_coverage_run_audits_clean(sbm200):
    config = CoverageConfig(k=2, alpha=0.2)
    result = coverage_experiment(sbm200, config, 30, base_seed=11)
    for name, audit in result.audits.items():
        assert audit.violations == 0, name
    # at this noise level the subspace radius is vacuous but still covers
    assert result.claims["subspace"].extra["radius"] > 1
    assert result.claims["subspace"].coverage == 1.0
    assert result.claims["deviation"].coverage == 1.0


def test_uniform_rounding_audit_fires_on_strong_signal():
    # at this signal strength the rowwise premise holds on every sample
    model = two_block_sbm(600, 0.9, 0.3)
    config = CoverageConfig(k=2, alpha=0.1, claims=("cluster",), c_row=0.02)
    result = coverage_experiment(model, config, 10, base_seed=13)
    audit = result.audits["rounding_uniform"]
    assert audit.trials >= 1
    assert audit.violations == 0
    assert result.claims["cluster"].extra["route"] == "uniform_rowwise"


@pytest.mark.parametrize("alpha", [0.05, 0.2])
def test_deviation_validity_across_levels(sbm200, alpha):
    # fraction exceeding the v(P) quantile stays within alpha + 3 sd
    config = CoverageConfig(
        k=2, alpha=alpha, claims=("deviation",), audit_inequalities=False
    )
    result = coverage_experiment(sbm200, config, 500, base_seed=61)
    sd = math.sqrt(alpha * (1 - alpha) / 500)
    assert 1.0 - result.claims["deviation"].coverage <= alpha + 3 * sd


def test_declared_mode_overdeclared_envelope(sbm200):
    config = CoverageConfig(
        k=2,
        alpha=0.2,
        claims=("deviation", "subspace"),
        envelope=Envelope(d_max=80.0, gap=20.0),  # over-declared: still valid, just wider
    )
    result = coverage_experiment(sbm200, config, 20, base_seed=5)
    assert result.claims["subspace"].coverage == 1.0
    assert result.claims["subspace"].extra["radius"] > 2


def test_declared_subnormal_gap_refuses_the_gap_claims(sbm200):
    # 2 q / 1e-320 overflows: no radius, so the claims are refused
    config = CoverageConfig(
        k=2, alpha=0.1, envelope=Envelope(d_max=39.7, gap=1e-320), audit_inequalities=False,
    )
    result = coverage_experiment(sbm200, config, 2, base_seed=0)
    for name in ("subspace", "cluster"):
        assert result.claims[name].refused and not result.claims[name].evaluated
    assert result.claims["centrality"].evaluated


def test_coverage_eigensolver_call_counts(eig_calls):
    # set-up decomposes P once; each replication decomposes its sample once
    # (region, audits and Katz scores) and takes ||A - P|| from eigvalsh
    model = two_block_sbm(60, 0.5, 0.1)
    result = coverage_experiment(model, CoverageConfig(k=2, alpha=0.1), 3, base_seed=1)
    assert all(c.evaluated for c in result.claims.values())
    assert eig_calls == {"eigh": 1 + 3, "eigvalsh": 3}

    # a refused subspace claim leaves the report without a region, so the
    # audits decompose each sample once more for the observed basis
    eig_calls.update(eigh=0, eigvalsh=0)
    config = CoverageConfig(k=2, alpha=0.1, envelope=Envelope(d_max=30.0))
    result = coverage_experiment(model, config, 3, base_seed=1)
    assert result.claims["subspace"].refused
    assert eig_calls == {"eigh": 1 + 2 * 3, "eigvalsh": 3}


def test_deviation_only_run_without_audits_calls_no_protocol(monkeypatch, sbm200):
    calls = []

    def counted(*args):
        calls.append(1)
        return run_protocol(*args)

    monkeypatch.setattr(graphcert.simulation, "run_protocol", counted)
    config = CoverageConfig(k=2, alpha=0.1, claims=("deviation",), audit_inequalities=False)
    coverage_experiment(sbm200, config, 5, base_seed=0)
    assert calls == []
    # the audits read the report, so with them on every sample is certified
    coverage_experiment(sbm200, CoverageConfig(k=2, alpha=0.1, claims=("deviation",)), 5, 0)
    assert len(calls) == 5
    # once the first report refuses every claim it states, none is read
    config = CoverageConfig(k=2, alpha=0.1, envelope=Envelope(), audit_inequalities=False)
    result = coverage_experiment(sbm200, config, 5, base_seed=0)
    assert [c.refused for c in result.claims.values()] == [False, True, True, True]
    assert len(calls) == 5 + 1


@pytest.mark.parametrize("replications", [0, -1])
def test_coverage_needs_a_replication(sbm200, replications):
    # refusals are read from the first replication's report
    config = CoverageConfig(k=2, alpha=0.1, claims=("deviation",))
    with pytest.raises(ValueError, match="at least one replication"):
        coverage_experiment(sbm200, config, replications, base_seed=0)


@pytest.mark.parametrize("field", ["declared_d_max", "declared_gap"])
def test_negative_declared_certificate_is_invalid(field):
    # the same refusal as a negative envelope declared to run_protocol
    declared = {"declared_d_max": 45.0, "declared_gap": 18.0, field: -1.0}
    name = field.removeprefix("declared_")
    with pytest.raises(ValueError, match=f"declared {name} must be nonnegative"):
        _coverage_config(k=2, alpha=0.1, **declared)


@pytest.mark.parametrize(
    "config_kwargs",
    [
        {"envelope": Envelope(d_max=45.0)},
        {"envelope": Envelope(gap=18.0)},
        {"katz_beta": 0.5},  # rho(P) = 39.7 > 1 / (2 beta)
        {"envelope": Envelope(d_max=45.0, gap=1e-320)},
    ],
)
def test_refused_claims_carry_the_report_reason(sbm200, config_kwargs):
    # each refused claim's reason is the one run_protocol writes for the
    # output that states the claim, under the same certificates
    config = CoverageConfig(k=2, alpha=0.1, audit_inequalities=False, **config_kwargs)
    claims = coverage_experiment(sbm200, config, 1, base_seed=0).claims
    spectrum = eigendecompose(sbm200.P)
    envelope = config.envelope
    if envelope is None:
        envelope = Envelope(d_max=expected_degree_bound(sbm200), gap=spectrum.gap(2))
    beta = config.katz_beta or 1.0 / (4.0 * spectrum.radius)
    protocol = ProtocolConfig(
        k=2,
        alpha=0.1,
        envelope=envelope,
        centrality=CentralityConfig(
            kind="katz", beta=beta, domain_certified=spectrum.radius <= 1 / (2 * beta)
        ),
        clustering=ClusteringConfig(delta=2 / math.sqrt(200)),
    )
    report = run_protocol(sample_adjacency(sbm200, 0), protocol)
    reasons = {r["output"]: r["reason"] for r in report.refusals}
    outputs = {"subspace": "subspace", "cluster": "cluster", "centrality": "centrality_bands"}
    refused = [name for name, claim in claims.items() if claim.refused]
    assert refused
    for name in refused:
        assert claims[name].reason == reasons[outputs[name]], name


# ---------------------------------------------------------------------------
# tie counterexample

def test_cluster_claim_refused_without_ground_truth_clusters():
    X = np.random.default_rng(2).uniform(0.2, 0.6, size=(60, 2))
    model = build_probability_matrix(RDPGSpec(X=X))
    config = CoverageConfig(k=2, alpha=0.1, delta=0.1, claims=("cluster",))
    claim = coverage_experiment(model, config, 5, base_seed=0).claims["cluster"]
    assert claim.refused and not claim.evaluated
    assert claim.reason == "no ground-truth clusters"


def test_declared_delta_beyond_population_separation_is_invalid(sbm200):
    # the population centers are 2 / sqrt(200) = 0.141 apart: a larger
    # declared margin contradicts them and is refused at set-up
    config = CoverageConfig(k=2, alpha=0.1, delta=0.5, claims=("cluster",))
    with pytest.raises(ValueError, match="closer than delta"):
        coverage_experiment(sbm200, config, 1, base_seed=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field", ["declared_d_max", "declared_gap", "katz_beta", "delta", "c_row"]
)
def test_coverage_config_rejects_non_finite(field, value):
    name = field.removeprefix("declared_")
    with pytest.raises(ValueError, match=f"declared {name} must be finite"):
        _coverage_config(k=2, alpha=0.1, **{field: value})


@pytest.mark.parametrize(
    "n,mode,c_row",
    [(200, "oracle", None), (200, "oracle", 0.01), (200, "oracle", 5.0),
     (200, "declared", 5.0), (120, "declared", 0.05)],
)
def test_harness_extra_matches_report_functions(n, mode, c_row):
    # the harness states the radii and the half-width that the functions
    # writing reports give for the same certificates; at n=200, c_row=5
    # both Hamming radii clamp to n and the route is the uniform one
    model = two_block_sbm(n, 0.3, 0.1)
    spectrum = eigendecompose(model.P)
    if mode == "oracle":
        d_max, gap, envelope = expected_degree_bound(model), spectrum.gap(2), None
    else:
        d_max, gap = 45.0, 18.0
        envelope = Envelope(d_max=d_max, gap=gap)
    delta = 2 / math.sqrt(n)
    config = CoverageConfig(
        k=2, alpha=0.1, envelope=envelope, delta=delta, c_row=c_row,
        audit_inequalities=False,
    )
    extra = {
        name: claim.extra
        for name, claim in coverage_experiment(model, config, 1, base_seed=0).claims.items()
    }

    S = eigendecompose(sample_adjacency(model, 0).A)
    region = subspace_region(S, 2, Envelope(d_max=d_max, gap=gap), 0.1)
    creg = cluster_region(region, delta, c_row=c_row)
    beta = 1.0 / (4.0 * spectrum.radius)  # the harness's default beta
    band = centrality_bands(
        katz_centrality(spectrum, beta), katz_modulus(beta), region.quantile.q, 0.1
    )
    assert extra["subspace"]["radius"] == region.radius
    assert extra["cluster"]["hamming_radius"] == creg.hamming_radius
    assert extra["cluster"]["route"] == creg.radius_route
    assert extra["centrality"]["half_width"] == band.half_width
    if c_row == 5.0 and n == 200:
        assert creg.hamming_radius == n and creg.radius_route == "uniform_rowwise"


def _hub_model():
    """One node tied to every other with probability 1, plus two dense blocks.

    Declared with a small envelope, its Katz selection margin clears the
    band and its embedding rows clear the uniform rounding threshold, so
    every audit gets trials.
    """
    labels = np.array([0] + [1] * 59 + [2] * 60)
    B = np.array([[0.0, 1.0, 1.0], [1.0, 0.99, 0.01], [1.0, 0.01, 0.99]])
    return build_probability_matrix(SBMSpec.from_labels(labels, B))


_WORKED_AUDITS = {
    "davis_kahan": (40, 0), "rounding_uniform": (0, 0),
    "rounding_mean_square": (40, 0), "selection_stability": (0, 0),
    "ridge_risk": (40, 0), "fairness_transfer": (120, 0),
    "fairness_tradeoff": (40, 0), "filtration": (40, 0),
}


@pytest.mark.parametrize(
    "model_name,config_kwargs,reps,joint,claim_hits,audits",
    [
        ("worked", {}, 40, 35,
         {"deviation": 40, "subspace": 40, "cluster": 35, "centrality": 40},
         _WORKED_AUDITS),
        ("worked", {"envelope": Envelope(d_max=45.0, gap=18.0)},
         40, 35, {"deviation": 40, "subspace": 40, "cluster": 35, "centrality": 40},
         _WORKED_AUDITS),
        ("hub", {"envelope": Envelope(d_max=1.0, gap=5.0), "katz_beta": 0.004},
         20, 20, {"deviation": 20, "subspace": 20, "cluster": 20, "centrality": 20},
         {"davis_kahan": (20, 0), "rounding_uniform": (20, 0),
          "rounding_mean_square": (20, 0), "selection_stability": (20, 0),
          "ridge_risk": (20, 0), "fairness_transfer": (60, 0),
          "fairness_tradeoff": (20, 0), "filtration": (20, 0)}),
    ],
)
def test_coverage_counts_pinned(model_name, config_kwargs, reps, joint, claim_hits, audits):
    # fixed-seed counts with the uniform rounding branch on (c_row set)
    model = two_block_sbm(200, 0.3, 0.1) if model_name == "worked" else _hub_model()
    config = CoverageConfig(k=2, alpha=0.1, c_row=0.01, **config_kwargs)
    result = coverage_experiment(model, config, reps, base_seed=11)
    assert result.hits == joint
    assert {name: c.hits for name, c in result.claims.items()} == claim_hits
    assert {name: (a.trials, a.violations) for name, a in result.audits.items()} == audits


def test_tie_counterexample_worked_example():
    x = np.array([2.0, 2.0, 1.0])
    x_new = tie_counterexample(x, m=1, eps=0.01)
    assert np.allclose(x_new, [1.99, 2.01, 1.0])
    sel = top_m_selection(x_new, 1)
    assert sel.unique and sel.sets == ((1,),)


@pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-6])
def test_tie_counterexample_any_eps(eps):
    x = np.array([1.0, 1.0, 1.0, 0.0])
    x_new = tie_counterexample(x, m=2, eps=eps)
    assert np.isclose(np.max(np.abs(x_new - x)), eps, rtol=1e-9)
    sel = top_m_selection(x_new, 2)
    assert sel.unique
    # index 0 was admissible before and is excluded now
    assert 0 not in sel.sets[0]


def test_tie_counterexample_requires_tie():
    with pytest.raises(NoTiePresent):
        tie_counterexample(np.array([3.0, 2.0, 1.0]), 1, 0.1)


def test_tie_counterexample_disjointness_audit(rng):
    # 100 random instances tied at the maximum with room for disjoint sets
    for trial in range(100):
        m = int(rng.integers(1, 4))
        tied = int(rng.integers(2 * m, 2 * m + 4))
        rest = int(rng.integers(1, 5))
        top = float(rng.uniform(1, 2))
        x = np.concatenate(
            [np.full(tied, top), rng.uniform(0, 0.5, size=rest)]
        )
        perm = rng.permutation(x.size)
        x = x[perm]
        before = top_m_selection(x, m)
        assert before.num_admissible >= 2
        x_new = tie_counterexample(x, m, eps=1e-4)
        after = top_m_selection(x_new, m)
        assert after.unique
        new_set = set(after.sets[0])
        assert any(not new_set & set(s) for s in before.sets), trial


# ---------------------------------------------------------------------------
# collision instances

def test_collision_instance_two_cliques():
    model, U_a, U_b = collision_instance(6, 1)
    P = model.P
    # two disconnected 3-cliques at probability one half
    assert P[0, 1] == 0.5 and P[0, 3] == 0.0
    w = np.sort(np.linalg.eigvalsh(P))[::-1]
    assert abs(w[0] - w[1]) < 1e-10  # top eigenvalue multiplicity 2
    assert abs(w[0] - 1.0) < 1e-12   # 0.5 * (3 - 1)
    assert abs(grassmann_distance(U_a, U_b) - 1.0) < 1e-12


def test_collision_instance_general_k():
    for n, k in [(12, 2), (20, 3), (9, 1)]:
        model, U_a, U_b = collision_instance(n, k)
        w = np.sort(np.linalg.eigvalsh(model.P))[::-1]
        assert abs(w[k - 1] - w[k]) < 1e-10
        assert abs(grassmann_distance(U_a, U_b) - 1.0) < 1e-12
        # both bases really span invariant subspaces of the collided block
        for U in (U_a, U_b):
            PU = model.P @ U.U
            assert np.allclose(PU, U.U * w[0], atol=1e-10)


def test_collision_instance_too_small():
    with pytest.raises(TooSmall):
        collision_instance(5, 2)


def test_collision_break_radius_scales_inversely(rng):
    # sweeping the collision-breaking parameter: radius ~ 1/delta
    from graphcert import davis_kahan_radius, deviation_quantile

    n, k = 40, 1
    products = []
    for delta in (0.2, 0.1, 0.05):
        model, _, _ = collision_instance(n, k, delta=delta)
        w = np.sort(np.linalg.eigvalsh(model.P))[::-1]
        gap = w[0] - w[1]
        q = deviation_quantile(5.0, n, 0.1).q
        r, _ = davis_kahan_radius(q, gap)
        products.append(r * delta)
    assert max(products) - min(products) < 1e-9 * max(products) + 1e-12


def test_collision_delta_validation():
    with pytest.raises(ValueError):
        collision_instance(12, 2, delta=0.9)  # above 1/k


# ---------------------------------------------------------------------------
# modulus audits

def test_modulus_audit_katz_two_norm(rng):
    n = 10
    samples = []
    for _ in range(3):
        M = rng.normal(size=(n, n))
        M = (M + M.T) / 2
        M *= 1.0 / np.linalg.norm(M, 2)
        samples.append(M)
    beta = 0.2  # limit 2.5, samples at rho = 1 leave room for the scale
    out = modulus_audit(("katz", beta), samples, perturbation_scale=0.3, trials=40)
    assert out.trials == 120
    assert out.max_ratio_2 <= out.stated_modulus_2  # 4 beta sqrt(n)
    assert out.stated_modulus_inf == 4 * beta
    assert out.max_ratio_inf > 0


def test_modulus_audit_eigenvector(rng):
    M = np.diag([6.0, 2.0, 1.0, 0.5])
    out = modulus_audit(("eigenvector",), [M], perturbation_scale=0.5, trials=60)
    assert out.max_ratio_2 <= out.stated_modulus_2 + 1e-9  # 2 / gamma
    assert out.stated_modulus_2 == 2.0 / 4.0


def test_modulus_audit_small_scale_matches_local_derivative(rng):
    # as the scale shrinks, ratios approach local sensitivities (sanity)
    M = np.diag([6.0, 2.0, 1.0, 0.5])
    big = modulus_audit(("eigenvector",), [M], perturbation_scale=0.4, trials=30)
    small = modulus_audit(("eigenvector",), [M], perturbation_scale=0.01, trials=30)
    assert small.max_ratio_2 <= big.stated_modulus_2
    assert small.max_ratio_2 > 0


def test_modulus_audit_rejects_out_of_domain():
    M = np.eye(4) * 10.0
    with pytest.raises(OutsideDomain):
        modulus_audit(("katz", 0.2), [M], perturbation_scale=0.1, trials=1)


@pytest.mark.parametrize(
    "field",
    ["alpha", "declared_d_max", "declared_gap", "katz_beta", "delta", "c_row",
     "ridge_lambda", "fairness_tau"],
)
@settings(max_examples=4)
@with_extreme_floats
@given(value=st.floats())
def test_coverage_config_reals_give_refusal_or_finite_result(field, value):
    # every declared real of CoverageConfig: NaN and +-inf are invalid
    # input; a finite extreme is refused with a typed error or gives a
    # result whose every real is finite
    base = dict(k=2, alpha=0.1, declared_d_max=30.0, declared_gap=10.0,
                katz_beta=0.01, delta=0.3, c_row=0.01)
    if not math.isfinite(value):
        name = field.removeprefix("declared_")
        with pytest.raises(ValueError, match=f"declared {name} must be finite"):
            _coverage_config(**{**base, field: value})
        return
    try:
        result = coverage_experiment(
            two_block_sbm(40, 0.5, 0.1), _coverage_config(**{**base, field: value}), 1, 0
        )
    except ValueError:  # GraphCertError included
        return
    assert non_finite_reals(result.to_dict()) == []

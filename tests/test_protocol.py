import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphcert import (
    AdjacencyMatrix,
    SBMSpec,
    UnsupportedSpec,
    build_probability_matrix,
    collision_instance,
    deviation_quantile,
    eigendecompose,
    eigengap,
    run_protocol,
    sample_adjacency,
    usvt_denoise,
)
from graphcert.models import DCSBMSpec, Envelope
from graphcert.protocol import (
    CentralityConfig,
    ClusteringConfig,
    FairnessConfig,
    ProtocolConfig,
    UsvtConfig,
    config_from_dict,
    config_to_dict,
)

from conftest import non_finite_reals, with_extreme_floats


def _k4():
    A = np.ones((4, 4), dtype=np.int8) - np.eye(4, dtype=np.int8)
    return AdjacencyMatrix(n=4, A=A)


def test_observed_gap_proxy_complete_graph():
    report = run_protocol(_k4(), ProtocolConfig(k=1))
    assert abs(report.observed_gap_proxy - 4.0) < 1e-12


def test_observed_gap_proxy_empty_graph():
    A = AdjacencyMatrix(n=4, A=np.zeros((4, 4), dtype=np.int8))
    assert run_protocol(A, ProtocolConfig(k=2)).observed_gap_proxy == 0.0


def test_observed_gap_proxy_matches_eigengap(rng, sbm200):
    # the proxy is the shared spectrum's gap, equal to the values-only one
    A = sample_adjacency(sbm200, 21)
    S = eigendecompose(A.A)
    w = np.sort(np.linalg.eigvalsh(A.A))[::-1]
    for k in (1, 2, 5):
        assert abs(S.gap(k) - eigengap(w, k)) < 1e-12
        assert run_protocol(A, ProtocolConfig(k=k)).observed_gap_proxy == S.gap(k)


def _parametric_gap(spec, k):
    """The D2 gap certificate run_protocol derives from an SBM spec."""
    A = sample_adjacency(build_probability_matrix(spec), 0)
    report = run_protocol(A, ProtocolConfig(k=k, parametric_spec=spec))
    assert report.certificates["provenance"] == "parametric"
    return report.certificates["gap"]


def test_parametric_certificate_worked_instance(sbm200):
    assert abs(_parametric_gap(sbm200.spec, 2) - 20.0) < 1e-9


def test_parametric_certificate_collision_is_zero():
    spec = SBMSpec.from_labels([0, 0, 1, 1], [[0.5, 0.0], [0.0, 0.5]])
    assert _parametric_gap(spec, 1) == 0.0


def test_parametric_certificate_three_block_matches_dense(rng):
    B = np.array([[0.8, 0.2, 0.1], [0.2, 0.7, 0.15], [0.1, 0.15, 0.6]])
    labels = np.repeat([0, 1, 2], 10)
    spec = SBMSpec.from_labels(labels, B)
    model = build_probability_matrix(spec)
    w = np.sort(np.linalg.eigvalsh(model.P))[::-1]
    for k in (1, 2, 3):
        dense = min(w[k - 1] - w[k], math.inf if k == 1 else w[k - 2] - w[k - 1])
        assert abs(_parametric_gap(spec, k) - dense) < 1e-9


def test_parametric_certificate_rejects_non_sbm():
    spec = DCSBMSpec(
        theta=np.ones(4) * 0.5,
        labels=np.array([0, 0, 1, 1]),
        B=np.array([[0.5, 0.1], [0.1, 0.5]]),
    )
    with pytest.raises(UnsupportedSpec):
        ProtocolConfig(k=1, parametric_spec=spec)


# ---------------------------------------------------------------------------
# USVT

def test_usvt_trivial_cases():
    A = np.zeros((6, 6))
    assert np.all(usvt_denoise(eigendecompose(A)) == 0)
    K = np.ones((6, 6)) - np.eye(6)
    assert np.all(usvt_denoise(eigendecompose(K), threshold_scale=1e9) == 0)


def test_usvt_recovers_flat_probability(rng):
    # Monte Carlo oracle: a dense Erdos-Renyi 0.5 graph denoises to ~0.5
    n = 200
    P = np.full((n, n), 0.5)
    np.fill_diagonal(P, 0.0)
    from graphcert.models import ProbabilityModel

    model = ProbabilityModel(n=n, P=P)
    A = sample_adjacency(model, 31)
    P_hat = usvt_denoise(eigendecompose(A.A))
    off = ~np.eye(n, dtype=bool)
    assert np.mean(np.abs(P_hat[off] - 0.5)) < 0.1


def test_usvt_feeds_weyl_certificate(sbm200):
    A = sample_adjacency(sbm200, 32)
    P_hat = usvt_denoise(eigendecompose(A.A))
    w = np.sort(np.linalg.eigvalsh(P_hat))[::-1]
    gap_hat = min(w[1] - w[2], w[0] - w[1])
    # with a moderate declared denoising error the certificate stays positive
    from graphcert import weyl_gap_certificate

    assert weyl_gap_certificate(gap_hat, 2.0) > 0


# ---------------------------------------------------------------------------
# full protocol runs

def _full_config(d1=True, d2=True, d3=True, d4=True, k=2, alpha=0.1):
    return config_from_dict(
        {
            "k": k,
            "alpha": alpha,
            "envelope": {
                "d_max": 39.7 if d1 else None,
                "gap": 20.0 if d2 else None,
            },
            "centrality": {
                "kind": "katz",
                "beta": 0.001,
                "domain_certified": bool(d3),
            },
            "clustering": {
                "delta": (2 / math.sqrt(200)) if d4 else None,
                "c_row": 0.05,
            },
            "selection_m": 3,
            "fairness": {
                "groups": [i % 2 for i in range(200)],
                "targets": [0.5] * 200,
                "tau": 0.5,
                "epsilon": 1.0,
            },
            "filtration": {"t_grid": [0.05, 0.1, 0.2]},
        }
    )


_PREREQS = {
    "subspace": ("D1", "D2"),
    "centrality_bands": ("D1", "D3"),
    "stability": ("D1", "D3"),
    "cluster": ("D1", "D2", "D4"),
    "fairness": ("D1", "D3"),
    "filtration": ("D1", "D2"),
}

_FLAG_REASONS = {
    "D1": "no_degree_envelope",
    "D2": "no_gap_certificate",
    "D3": "domain_not_certified",
    "D4": "no_margin_declared",
}

# output -> (prerequisites in the order they are checked, the refusal's
# detail when it is not the failing flag's provenance)
_REFUSAL_ORDER = {
    "deviation_quantile": (("D1",), "declare envelope.d_max to obtain a deviation quantile"),
    "subspace": (("D1", "D2"), None),
    "centrality_bands": (("D1", "D3"), None),
    "cluster": (("D4", "D1", "D2"), None),
    "fairness": (("D1", "D3"), "fairness certification needs a certified score band"),
    "filtration": (("D1", "D2"), None),
}


def test_gating_soundness_all_sixteen_combinations(sbm200):
    A = sample_adjacency(sbm200, 41)
    for bits in itertools.product([False, True], repeat=4):
        d1, d2, d3, d4 = bits
        report = run_protocol(A, _full_config(d1, d2, d3, d4))
        flags = {name: fl.passed for name, fl in report.flags.items()}
        assert flags == {"D1": d1, "D2": d2, "D3": d3, "D4": d4}
        for output, prereqs in _PREREQS.items():
            expected = all(flags[p] for p in prereqs)
            assert (output in report.outputs) == expected, (bits, output)
        # refusals carry machine-readable entries for everything gated shut
        refused_outputs = {r["output"] for r in report.refusals}
        for output, prereqs in _PREREQS.items():
            if not all(flags[p] for p in prereqs):
                assert output in refused_outputs
        # each refusal names the first failing prerequisite in its output's
        # order, with that flag's provenance as the detail
        expected_refusals = {}
        for output, (order, detail) in _REFUSAL_ORDER.items():
            failing = next((name for name in order if not flags[name]), None)
            if failing is not None:
                expected_refusals[output] = (
                    _FLAG_REASONS[failing], detail or report.flags[failing].provenance
                )
        if "centrality_bands" in expected_refusals:
            expected_refusals["stability"] = (
                "no_scores", "stability needs certified centrality scores"
            )
        refusals = {r["output"]: (r["reason"], r["detail"]) for r in report.refusals}
        assert refusals == expected_refusals, bits


def test_no_envelope_at_all_reports_only_proxy_and_refusals(sbm200):
    A = sample_adjacency(sbm200, 42)
    config = config_from_dict(
        {
            "k": 2,
            "alpha": 0.1,
            "centrality": {"kind": "katz", "beta": 0.001},
            "clustering": {},
            "fairness": {
                "groups": [i % 2 for i in range(200)],
                "targets": [0.5] * 200,
                "tau": 0.5,
                "epsilon": 1.0,
            },
            "filtration": {"t_grid": [0.1]},
        }
    )
    report = run_protocol(A, config)
    assert all(not fl.passed for fl in report.flags.values())
    assert report.outputs == {}
    assert report.observed_gap_proxy > 0
    assert len(report.refusals) >= 4


def test_zero_gap_certificate_refuses_subspace(sbm200):
    A = sample_adjacency(sbm200, 43)
    config = config_from_dict(
        {"k": 2, "alpha": 0.1, "envelope": {"d_max": 39.7, "gap": 0.0}}
    )
    report = run_protocol(A, config)
    assert not report.flags["D2"].passed
    assert "subspace" not in report.outputs
    reasons = {r["output"]: r["reason"] for r in report.refusals}
    assert reasons["subspace"] == "no_gap_certificate"


def test_worked_instance_full_protocol(sbm200):
    A = sample_adjacency(sbm200, 44)
    n = 200
    beta = 5 / 794
    config = config_from_dict(
        {
            "k": 2,
            "alpha": 0.05,
            "envelope": {"d_max": 39.7},
            "parametric_spec": {
                "type": "sbm",
                "labels": [int(v) for v in sbm200.spec.labels],
                "B": [[0.3, 0.1], [0.1, 0.3]],
            },
            "centrality": {"kind": "katz", "beta": beta},
            "clustering": {
                "delta": 2 / math.sqrt(n),
                "centers": [
                    [1 / math.sqrt(n), 1 / math.sqrt(n)],
                    [1 / math.sqrt(n), -1 / math.sqrt(n)],
                ],
            },
            "selection_m": 5,
        }
    )
    report = run_protocol(A, config)
    assert all(report.flags[d].passed for d in ("D1", "D2", "D3", "D4"))

    q = deviation_quantile(39.7, n, 0.05).q
    gap = report.certificates["gap"]
    assert abs(gap - 20.0) < 1e-9
    radius = report.outputs["subspace"]["radius"]
    assert abs(radius - 2 * q / gap) < 1e-9
    assert report.outputs["subspace"]["informative"] is False

    half = report.outputs["centrality_bands"]["half_width"]
    assert abs(half - (10 / 397) * q) < 1e-9

    ham = report.outputs["cluster"]["hamming_radius"]
    assert ham == min(n, math.ceil(16 * (2 * 2 * radius**2) / (2 / math.sqrt(n)) ** 2))

    # labels recover the planted blocks at this signal strength
    from graphcert import perm_hamming_distance

    assert perm_hamming_distance(
        np.asarray(report.outputs["cluster"]["labels"]), sbm200.spec.labels
    ) == 0


def test_usvt_gap_route_gates_d2(sbm200):
    A = sample_adjacency(sbm200, 45)
    config = config_from_dict(
        {
            "k": 2,
            "alpha": 0.1,
            "envelope": {"d_max": 39.7},
            "usvt": {"threshold_scale": 2.02, "eps_p": 2.0},
        }
    )
    report = run_protocol(A, config)
    assert report.flags["D2"].passed
    assert report.certificates["provenance"] == "usvt_weyl"
    assert "usvt" in report.diagnostics
    assert report.diagnostics["usvt"]["uncertified_deviation_route"] > 0
    # the certified gap is the weyl transfer of the denoised gap
    from graphcert import weyl_gap_certificate

    P_hat = usvt_denoise(eigendecompose(A.A), 2.02)
    w = np.sort(np.linalg.eigvalsh(P_hat))[::-1]
    assert abs(report.certificates["gap"] - weyl_gap_certificate(eigengap(w, 2), 2.0)) < 1e-12


def test_eigenvector_centrality_route(sbm200):
    A = sample_adjacency(sbm200, 51)
    config = config_from_dict(
        {
            "k": 2,
            "alpha": 0.05,
            "envelope": {"d_max": 39.7},
            "parametric_spec": {
                "type": "sbm",
                "labels": [int(v) for v in sbm200.spec.labels],
                "B": [[0.3, 0.1], [0.1, 0.3]],
            },
            "centrality": {"kind": "eigenvector"},
        }
    )
    report = run_protocol(A, config)
    assert report.flags["D3"].passed
    q = deviation_quantile(39.7, 200, 0.05).q
    # modulus 2/gamma with the parametric gamma = lam1 - lam2 = 20
    assert abs(report.outputs["centrality_bands"]["half_width"] - (2 / 20.0) * q) < 1e-9
    point = np.asarray(report.outputs["centrality_bands"]["point"])
    assert point.shape == (200,)
    assert point.sum() > 0  # ones-aligned sign convention


def test_declared_eigenvector_gamma(sbm200):
    A = sample_adjacency(sbm200, 52)
    config = config_from_dict(
        {
            "k": 2,
            "alpha": 0.05,
            "envelope": {"d_max": 39.7, "gap": 20.0},
            "centrality": {"kind": "eigenvector", "gamma": 10.0, "domain_certified": True},
        }
    )
    report = run_protocol(A, config)
    assert report.flags["D3"].passed
    q = deviation_quantile(39.7, 200, 0.05).q
    assert abs(report.outputs["centrality_bands"]["half_width"] - 0.2 * q) < 1e-9


def test_fairness_output_values(sbm200):
    A = sample_adjacency(sbm200, 53)
    groups = [int(v) for v in sbm200.spec.labels]
    config = config_from_dict(
        {
            "k": 2,
            "alpha": 0.05,
            "envelope": {"d_max": 39.7, "gap": 20.0},
            "centrality": {"kind": "katz", "beta": 5 / 794, "domain_certified": True},
            "fairness": {
                "groups": groups,
                "targets": [0.5] * 200,
                "tau": 1.0,
                "epsilon": 0.9,
            },
        }
    )
    report = run_protocol(A, config)
    out = report.outputs["fairness"]
    q = deviation_quantile(39.7, 200, 0.05).q
    assert abs(out["band_radius"] - (10 / 397) * q) < 1e-9
    assert abs(out["effective_epsilon"] - (0.9 - out["band_radius"])) < 1e-12
    assert out["certified"] is True
    assert out["parity_gap_at_scores"] <= out["effective_epsilon"]


def test_fairness_insufficient_tolerance_refusal(sbm200):
    A = sample_adjacency(sbm200, 54)
    config = config_from_dict(
        {
            "k": 2,
            "alpha": 0.05,
            "envelope": {"d_max": 39.7, "gap": 20.0},
            "centrality": {"kind": "katz", "beta": 5 / 794, "domain_certified": True},
            "fairness": {
                "groups": [i % 2 for i in range(200)],
                "targets": [0.5] * 200,
                "tau": 1.0,
                "epsilon": 0.1,  # below the band slack r/tau ~ 0.75
            },
        }
    )
    report = run_protocol(A, config)
    assert "fairness" not in report.outputs
    assert any(r["reason"] == "insufficient_tolerance" for r in report.refusals)


def test_filtration_output_values(sbm200):
    A = sample_adjacency(sbm200, 55)
    config = config_from_dict(
        {
            "k": 2,
            "alpha": 0.05,
            "envelope": {"d_max": 39.7, "gap": 20.0},
            "clustering": {"delta": 2 / math.sqrt(200), "c_row": 0.05},
            "filtration": {"t_grid": [0.05, 0.1, 0.2]},
        }
    )
    report = run_protocol(A, config)
    out = report.outputs["filtration"]
    assert abs(out["eta"] - 0.05 * report.outputs["subspace"]["radius"]) < 1e-12
    for snap in out["snapshots"]:
        assert snap["edges_lower"] <= snap["edges_point"] <= snap["edges_upper"]
        assert snap["components_lower"] >= snap["components_point"] >= snap["components_upper"]


def test_reports_are_byte_identical(sbm200):
    A = sample_adjacency(sbm200, 46)
    config = _full_config()
    text1 = run_protocol(A, config).to_json()
    text2 = run_protocol(A, config).to_json()
    assert text1 == text2


def test_gap_proxy_never_enters_radius(sbm200):
    # same certificates, two different observed graphs: identical radii
    config = config_from_dict(
        {"k": 2, "alpha": 0.1, "envelope": {"d_max": 39.7, "gap": 20.0}}
    )
    r = []
    proxies = []
    for seed in (47, 48):
        report = run_protocol(sample_adjacency(sbm200, seed), config)
        r.append(report.outputs["subspace"]["radius"])
        proxies.append(report.observed_gap_proxy)
    assert r[0] == r[1]
    assert proxies[0] != proxies[1]
    # and the radius re-derives from the certificates alone
    q = deviation_quantile(39.7, 200, 0.1).q
    assert abs(r[0] - 2 * q / 20.0) < 1e-12


def test_config_requires_k():
    with pytest.raises(ValueError):
        config_from_dict({"alpha": 0.1})


def test_config_roundtrip():
    cfg = _full_config()
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_collision_instance_drives_refusal():
    model, U_a, U_b = collision_instance(12, 2)
    A = sample_adjacency(model, 49)
    config = ProtocolConfig(k=2, alpha=0.1, parametric_spec=model.spec)
    from graphcert.models import Envelope
    from dataclasses import replace

    config = replace(config, envelope=Envelope(d_max=10.0, gap=None))
    report = run_protocol(A, config)
    assert not report.flags["D2"].passed
    assert "subspace" not in report.outputs
    assert any(
        r["output"] == "subspace" and r["reason"] == "no_gap_certificate"
        for r in report.refusals
    )


_DECLARED_FIELDS = [
    (Envelope, {}, "d_max"),
    (Envelope, {}, "gap"),
    (CentralityConfig, {"kind": "katz", "beta": 0.01}, "beta"),
    (CentralityConfig, {"kind": "eigenvector"}, "gamma"),
    (ClusteringConfig, {}, "delta"),
    (ClusteringConfig, {}, "c_row"),
    (UsvtConfig, {}, "threshold_scale"),
    (UsvtConfig, {}, "eps_p"),
    (FairnessConfig, {"groups": (0, 1), "targets": (0.5, 0.5), "tau": 0.5, "epsilon": 0.2}, "tau"),
    (FairnessConfig, {"groups": (0, 1), "targets": (0.5, 0.5), "tau": 0.5, "epsilon": 0.2}, "epsilon"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls,base,field", _DECLARED_FIELDS)
def test_declared_values_must_be_finite(cls, base, field, value):
    cls(**base)  # the base declaration itself is valid
    with pytest.raises(ValueError, match=f"declared {field} must be finite"):
        cls(**{**base, field: value})


def _eigensolver_route_config(route):
    n = 200
    doc = {
        "k": 2,
        "alpha": 0.05,
        "envelope": {"d_max": 39.7, "gap": 20.0},
        "centrality": {"kind": "katz", "beta": 5 / 794, "domain_certified": True},
        "clustering": {"delta": 2 / math.sqrt(n), "c_row": 0.01},
        "selection_m": 5,
        "fairness": {"groups": [i % 2 for i in range(n)], "targets": [0.5] * n,
                     "tau": 1.0, "epsilon": 0.9},
        "filtration": {"t_grid": [0.05, 0.1, 0.2]},
    }
    eigenvector = {"kind": "eigenvector", "gamma": 18.0, "domain_certified": True}
    if route == "usvt_eigenvector":
        doc["envelope"] = {"d_max": 39.7}
        doc["usvt"] = {"threshold_scale": 2.02, "eps_p": 2.0}
        doc["centrality"] = eigenvector
    elif route == "parametric_eigenvector":
        doc["envelope"] = {"d_max": 39.7}
        doc["parametric_spec"] = {"type": "sbm", "labels": [i // 100 for i in range(n)],
                                  "B": [[0.3, 0.1], [0.1, 0.3]]}
        doc["centrality"] = eigenvector
    return config_from_dict(doc)


@pytest.mark.parametrize(
    "route,eigh,eigvalsh",
    [("declared_katz", 1, 0), ("usvt_eigenvector", 1, 2), ("parametric_eigenvector", 1, 1)],
)
def test_eigensolver_call_counts(sbm200, eig_calls, route, eigh, eigvalsh):
    # one eigh of A serves every consumer; eigvalsh only for P_hat, A - P_hat
    # and the parametric P, which is built and decomposed once
    A = sample_adjacency(sbm200, 56)
    report = run_protocol(A, _eigensolver_route_config(route))
    assert {"subspace", "centrality_bands", "cluster", "filtration"} <= set(report.outputs)
    assert eig_calls == {"eigh": eigh, "eigvalsh": eigvalsh}


def test_usvt_denoise_matches_direct_eigh(sbm200):
    A = sample_adjacency(sbm200, 57)
    M = A.A
    w, V = np.linalg.eigh(M)
    thr = 2.02 * math.sqrt(200 * float(M.sum()) / (200 * 199))
    keep = np.abs(w) >= thr
    P_hat = np.clip((V[:, keep] * w[keep]) @ V[:, keep].T, 0.0, 1.0)
    P_hat = (P_hat + P_hat.T) / 2.0
    np.fill_diagonal(P_hat, 0.0)
    assert np.array_equal(usvt_denoise(eigendecompose(M), 2.02), P_hat)


def _two_block_40():
    from graphcert import two_block_sbm

    return sample_adjacency(two_block_sbm(40, 0.5, 0.1), 3)


def _tiny_gap_config(gap):
    return config_from_dict({
        "k": 2,
        "alpha": 0.05,
        "envelope": {"d_max": 10, "gap": gap},
        "clustering": {"delta": 0.3, "c_row": 0.01},
        "filtration": {"t_grid": [0.1]},
    })


def test_subnormal_gap_is_refused_not_an_infinite_radius():
    # 2 q / 1e-320 overflows: D2 fails and every gap-fed output is refused
    report = run_protocol(_two_block_40(), _tiny_gap_config(1e-320))
    assert not report.flags["D2"].passed
    assert report.outputs == {}
    reasons = {r["output"]: r["reason"] for r in report.refusals}
    for output in ("subspace", "cluster", "filtration"):
        assert reasons[output] == "no_gap_certificate"
    text = report.to_json()
    assert "Infinity" not in text and "NaN" not in text


def test_tiny_gap_with_finite_radius_clamps_the_hamming_ball():
    # r = 2q/1e-300 is finite but r^2 overflows: the ball is clamped at n
    report = run_protocol(_two_block_40(), _tiny_gap_config(1e-300))
    assert report.flags["D2"].passed
    assert math.isfinite(report.outputs["subspace"]["radius"])
    assert report.outputs["cluster"]["hamming_radius"] == 40
    assert report.outputs["cluster"]["vacuous"]
    text = report.to_json()
    assert "Infinity" not in text and "NaN" not in text


def test_declared_centers_row_norm_at_most_one():
    # population centers are means of orthonormal-basis rows and may round
    # just past norm 1, so a 1e-12 slack is allowed
    ClusteringConfig(delta=0.3, centers=((0.6, 0.8 + 1e-13), (0.1, -0.1)))
    for bad in (((0.6, 0.8 + 1e-9), (0.1, -0.1)), ((1e308, 1e308), (1e308, -1e308))):
        with pytest.raises(ValueError, match="row norm at most 1"):
            ClusteringConfig(delta=0.3, centers=bad)


def test_declared_centers_must_be_delta_apart():
    # the margin is a claim about the centers themselves: centers closer
    # than delta contradict it, while centers exactly delta apart pass
    with pytest.raises(ValueError, match="closer than delta"):
        ClusteringConfig(delta=1.0, centers=((0.1, 0.0), (0.1, 0.001)))
    for n in (40, 200, 2000):
        c = 1.0 / math.sqrt(n)
        ClusteringConfig(delta=2.0 / math.sqrt(n), centers=((c, c), (c, -c)))
    # without a declared margin there is nothing to contradict
    ClusteringConfig(centers=((0.1, 0.0), (0.1, 0.001)))


def test_fairness_targets_must_lie_in_unit_interval():
    base = {"groups": (0, 1), "tau": 0.5, "epsilon": 0.2}
    FairnessConfig(targets=(0.0, 1.0), **base)
    for bad in (math.nan, -0.1, 1.5):
        with pytest.raises(ValueError, match="targets must lie in"):
            FairnessConfig(targets=(0.5, bad), **base)


def _extreme_config_doc(route):
    n = 40
    doc = {
        "k": 2,
        "alpha": 0.05,
        "envelope": {"d_max": 30.0, "gap": 10.0},
        "centrality": {"kind": "katz", "beta": 0.01, "domain_certified": True},
        "clustering": {"delta": 0.3, "c_row": 0.01, "centers": [[0.15, 0.15], [0.15, -0.15]]},
        "selection_m": 3,
        "fairness": {"groups": [i % 2 for i in range(n)], "targets": [0.5] * n,
                     "tau": 1.0, "epsilon": 0.9},
        "filtration": {"t_grid": [0.05, 0.1, 0.2]},
    }
    if route == "usvt":
        doc["envelope"] = {"d_max": 30.0}
        doc["usvt"] = {"threshold_scale": 2.02, "eps_p": 1.0}
        doc["centrality"] = {"kind": "eigenvector", "gamma": 10.0, "domain_certified": True}
    return doc


# every declared real of the envelope and of the centrality, clustering,
# USVT and fairness blocks, with the route on which it is read
_DECLARED_REALS = [
    ("envelope", "d_max", "declared"),
    ("envelope", "gap", "declared"),
    ("centrality", "beta", "declared"),
    ("centrality", "gamma", "usvt"),
    ("clustering", "delta", "declared"),
    ("clustering", "c_row", "declared"),
    ("clustering", "centers", "declared"),
    ("usvt", "threshold_scale", "usvt"),
    ("usvt", "eps_p", "usvt"),
    ("fairness", "tau", "declared"),
    ("fairness", "epsilon", "declared"),
]


@pytest.mark.parametrize("block,key,route", _DECLARED_REALS)
@settings(max_examples=8)
@with_extreme_floats
@given(value=st.floats())
def test_declared_reals_give_refusal_or_finite_report(block, key, route, value):
    # NaN and +-inf are invalid input; any finite value, down to subnormals
    # and up to 1e308, is refused with a typed error or gives a report whose
    # every real is finite (no overflow turns into a radius or a band)
    doc = _extreme_config_doc(route)
    if key == "centers":
        doc[block][key][0][0] = value
    else:
        doc[block][key] = value
    if not math.isfinite(value):
        with pytest.raises(ValueError, match="must be finite"):
            config_from_dict(doc)
        return
    try:
        report = run_protocol(_two_block_40(), config_from_dict(doc))
    except ValueError:  # GraphCertError included: exit 1 at the CLI
        return
    assert non_finite_reals(report.to_dict()) == []


@pytest.mark.parametrize("alpha", [5e-324, 1e-308])
def test_overflowing_quantile_fails_d1(alpha):
    # log(2n/alpha) overflows: no deviation quantile, every output refused
    doc = _extreme_config_doc("declared")
    doc["alpha"] = alpha
    report = run_protocol(_two_block_40(), config_from_dict(doc))
    assert not report.flags["D1"].passed
    assert report.quantile is None and report.outputs == {}
    assert non_finite_reals(report.to_dict()) == []
    doc["alpha"], doc["envelope"]["d_max"] = 0.05, 1e308
    report = run_protocol(_two_block_40(), config_from_dict(doc))
    assert not report.flags["D1"].passed
    assert "overflows" in report.flags["D1"].provenance

import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from graphcert import (
    AdjacencyMatrix,
    SBMSpec,
    ShapeMismatch,
    UnsupportedSpec,
    build_probability_matrix,
    deviation_quantile,
    eigendecompose,
    eigengap,
    run_protocol,
    sample_adjacency,
    two_block_sbm,
    usvt_denoise,
)
from graphcert import linalg
from graphcert.io import to_json
from graphcert.models import DCSBMSpec, Envelope
from graphcert.protocol import (
    CentralityConfig,
    ClusteringConfig,
    FairnessConfig,
    ProtocolConfig,
    UsvtConfig,
    _ROW_BLOCK,
    _clip_free,
    _symmetrize,
    _usvt_kept,
    config_from_dict,
    report_to_json,
)
from graphcert.simulation import CoverageConfig, coverage_experiment

from conftest import (
    MALFORMED_CONFIGS,
    collision_instance,
    full_config_doc,
    malformed,
    non_finite_reals,
    with_extreme_floats,
)


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
    spec = SBMSpec(labels=[0, 0, 1, 1], B=[[0.5, 0.0], [0.0, 0.5]])
    assert _parametric_gap(spec, 1) == 0.0


def test_parametric_certificate_three_block_matches_dense(rng):
    B = np.array([[0.8, 0.2, 0.1], [0.2, 0.7, 0.15], [0.1, 0.15, 0.6]])
    labels = np.repeat([0, 1, 2], 10)
    spec = SBMSpec(labels=labels, B=B)
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
    doc = full_config_doc()
    doc["parametric_spec"] = {"type": "rdpg", "X": [[0.5]] * 40}
    with pytest.raises(UnsupportedSpec):
        config_from_dict(doc)


# ---------------------------------------------------------------------------
# USVT

def test_usvt_trivial_cases():
    A = np.zeros((6, 6))
    assert np.all(usvt_denoise(eigendecompose(A)) == 0)
    K = np.ones((6, 6)) - np.eye(6)
    assert np.all(usvt_denoise(eigendecompose(K), threshold_scale=1e9) == 0)


def _usvt_threshold(A, threshold_scale):
    n = A.shape[0]
    return threshold_scale * math.sqrt(n * (float(A.sum()) / (n * (n - 1))))


@pytest.mark.parametrize("threshold_scale", [2.02, 0.5, 1e9])
def test_usvt_matches_numpy_product(threshold_scale):
    """P_hat comes from scipy's dgemm; numpy's matmul sums in another order,
    so the two agree to rounding, and P_hat keeps its exact invariants."""
    from graphcert.models import two_block_sbm

    n = 1000
    S = eigendecompose(sample_adjacency(two_block_sbm(n, 0.3, 0.1), 5).A)
    P_hat = usvt_denoise(S, threshold_scale)
    w, V = S.beyond(_usvt_threshold(S.matrix, threshold_scale))
    ref = (V * w) @ V.T
    np.clip(ref, 0.0, 1.0, out=ref)
    ref = (ref + ref.T) / 2.0
    np.fill_diagonal(ref, 0.0)
    assert np.max(np.abs(P_hat - ref)) <= 1e-15
    assert np.array_equal(P_hat, P_hat.T)
    assert np.all(np.diag(P_hat) == 0)
    assert P_hat.min() >= 0.0 and P_hat.max() <= 1.0


def _usvt_full_decomposition(A, threshold_scale):
    """The denoiser as it was before subset reads: every eigenpair of A from
    one full ``evd`` solve, the pairs with |lambda| >= thr kept (all of them
    when thr = 0). Returns P_hat and the number of pairs kept."""
    # in float64: scipy solves an int8 matrix in float32
    w, V = scipy.linalg.eigh(np.asarray(A, dtype=float), driver="evd")
    thr = _usvt_threshold(A, threshold_scale)
    keep = np.abs(w) >= thr if thr > 0 else np.ones_like(w, dtype=bool)
    P_hat = np.clip((V[:, keep] * w[keep]) @ V[:, keep].T, 0.0, 1.0)
    P_hat = (P_hat + P_hat.T) / 2.0
    np.fill_diagonal(P_hat, 0.0)
    return P_hat, int(keep.sum())


def _usvt_cases():
    from graphcert.models import two_block_sbm

    return {
        "two_block_200": (sample_adjacency(two_block_sbm(200, 0.3, 0.1), 57).A, 2.02, 2),
        "two_block_1000": (sample_adjacency(two_block_sbm(1000, 0.3, 0.1), 5).A, 2.02, 2),
        # lambda_min ~ -45 lies below -thr ~ -15 and must be kept
        "disassortative_200": (sample_adjacency(two_block_sbm(200, 0.05, 0.5), 8).A, 2.02, 2),
        "empty_graph": (np.zeros((12, 12)), 2.02, 12),  # thr = 0 keeps every pair
        "keeps_nothing": (sample_adjacency(two_block_sbm(200, 0.3, 0.1), 57).A, 1e9, 0),
    }


@pytest.mark.parametrize("case", list(_usvt_cases()))
def test_usvt_denoise_matches_full_decomposition(case):
    A, threshold_scale, kept = _usvt_cases()[case]
    want, want_kept = _usvt_full_decomposition(A, threshold_scale)
    S = eigendecompose(A)
    got = usvt_denoise(S, threshold_scale)
    w, _ = S.beyond(_usvt_threshold(A, threshold_scale))
    assert w.size == want_kept == kept
    assert np.max(np.abs(got - want)) <= 1e-12
    if case == "disassortative_200":
        assert w.min() < 0 < w.max()


@given(
    n=st.sampled_from([1, 2, 7, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 5]),
    order=st.sampled_from(["C", "F"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40)
def test_symmetrize_in_place_gives_the_bits_of_the_mean(n, order, seed):
    # odd n, n below, at and above one block, and both memory orders: the
    # blocked in-place mean equals (P + P^T) / 2 bit for bit
    P = np.asarray(np.random.default_rng(seed).normal(size=(n, n)), order=order)
    want = (P + P.T) / 2.0
    _symmetrize(P)
    assert np.array_equal(P, want)


def test_usvt_denoise_holds_one_n_by_n_array():
    # the product is the only n x n array: forming (P + P.T) / 2.0 would
    # hold a second one at once
    n = 600
    S = eigendecompose(sample_adjacency(two_block_sbm(n, 0.3, 0.1), 1).A)
    _usvt_kept(S, 2.02)  # the reduction and the kept pairs, read before tracing
    tracemalloc.start()
    try:
        usvt_denoise(S, 2.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n * n * 8 <= peak < 1.5 * n * n * 8


def _hadamard_pairs(w1, w2, n=2 * _ROW_BLOCK):
    """The first two columns of a Hadamard matrix, scaled to be exactly
    orthonormal, and their values: the first is constant, so every product
    entry is (w1 +- w2) / n, computed exactly."""
    H = scipy.linalg.hadamard(n).astype(float) / math.sqrt(n)
    return np.array([w1, w2], dtype=float), H[:, :2]


@pytest.mark.parametrize("w1,w2,clip_free", [
    (128.0, 64.0, True),    # entries 0.25 and 0.75
    (64.0, 64.0, False),    # entries 0 and 0.5: one end exactly at 0
    (192.0, 64.0, False),   # entries 0.5 and 1: one end exactly at 1
])
def test_clip_margin_sends_entries_at_zero_or_one_to_the_reduction(w1, w2, clip_free):
    # an entry at 0 or 1 lies inside the rounding margin of the clip, so the
    # gap is read from the materialized P_hat, not from the operator
    w, V = _hadamard_pairs(w1, w2)
    entries = np.unique(((V * w) @ V.T)[~np.eye(V.shape[0], dtype=bool)])
    assert entries.tolist() == [(w1 - w2) / 256, (w1 + w2) / 256]
    assert _clip_free(w, V) == clip_free


def test_clip_check_skips_the_diagonal():
    # the diagonal is zeroed, never clipped: a row concentrated on node 0
    # puts entry (0, 0) near 10.8, the off-diagonal entries in [0.07, 0.9]
    n = 256
    u = np.full(n, math.sqrt(0.64 / (n - 1)))
    u[0] = 0.6
    w, V = np.array([30.0]), (u / np.linalg.norm(u))[:, None]
    X = (V * w) @ V.T
    assert X[0, 0] > 10 and 0.07 < X[~np.eye(n, dtype=bool)].min() < X[0, 1] < 0.91
    assert _clip_free(w, V)


@pytest.mark.parametrize("n,seed,reduction", [(600, 1, 1), (200, 1, 2)])
def test_usvt_gap_reads_the_operator_unless_an_entry_clips(eig_calls, n, seed, reduction):
    # the n = 600 corpus graph clips no entry: A's reduction is the only one,
    # and the clip check and the read make no n x n array; the n = 200 one
    # (min entry -0.051) clips, so P_hat is materialized and reduced
    A = sample_adjacency(two_block_sbm(n, 0.3, 0.1), seed)
    doc = {"k": 2, "usvt": {"threshold_scale": 2.02, "eps_p": n / 100.0}}
    got = run_protocol(A, config_from_dict(doc)).diagnostics["usvt"]["empirical_gap_of_denoised"]
    assert eig_calls["reduction"] == reduction
    S = eigendecompose(A.A)
    w, V = _usvt_kept(S, 2.02)
    tracemalloc.start()
    try:
        clip_free = _clip_free(w, V)
        read = linalg._ritz_gap(w, V, 2)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8
    assert clip_free == (reduction == 1)
    if clip_free:
        assert read == got
    P_hat = eigendecompose(usvt_denoise(S, 2.02))
    assert abs(got - P_hat.gap(2)) <= 1e-12 * P_hat.top(1)[0][0]


@pytest.mark.parametrize("threshold_scale", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_usvt_refuses_nonfinite_or_nonpositive_threshold_scale(sbm200, threshold_scale):
    # a NaN scale used to pass `<= 0` and keep every pair, returning A; an
    # infinite one returned the zero matrix
    S = eigendecompose(sample_adjacency(sbm200, 57).A)
    with pytest.raises(ValueError, match="threshold_scale"):
        usvt_denoise(S, threshold_scale)
    with pytest.raises(ValueError, match="threshold"):
        S.beyond(math.nan)


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
    assert list(report.diagnostics["usvt"]) == [
        "threshold_scale", "eps_p", "empirical_gap_of_denoised"
    ]
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
    refusal, = (r for r in report.refusals if r["reason"] == "insufficient_tolerance")
    slack = report.outputs["centrality_bands"]["half_width"] / 1.0
    assert refusal["detail"] == f"epsilon 0.1 < band slack {slack!r}"


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


def _assert_read_back(mine, parsed):
    """``parsed`` (the writer's text read back) holds ``mine`` leaf for leaf:
    same keys in order, same types, and every real bit for bit."""
    if isinstance(mine, (np.ndarray, np.generic)):
        mine = mine.tolist()
    if isinstance(mine, dict):
        assert list(parsed) == list(mine)
        for key, val in mine.items():
            _assert_read_back(val, parsed[key])
    elif isinstance(mine, (list, tuple)):
        assert type(parsed) is list and len(parsed) == len(mine)
        for x, y in zip(mine, parsed):
            _assert_read_back(x, y)
    elif isinstance(mine, float) and math.isnan(mine):
        assert type(parsed) is float and math.isnan(parsed)
    elif isinstance(mine, float):
        assert type(parsed) is float and np.float64(parsed).tobytes() == np.float64(mine).tobytes()
    else:
        assert type(parsed) is type(mine) and parsed == mine


def test_report_writer_echoes_declared_reals_and_reads_back_bit_for_bit():
    doc = full_config_doc()
    doc["envelope"]["d_max"] = 39.7
    report = run_protocol(_two_block_40(), config_from_dict(doc))
    text = report.to_json()
    assert '\n  "alpha": 0.05,\n' in text
    assert '"d_max": 39.7,' in text and '"provenance": "declared d_max = 39.7"' in text
    _assert_read_back(report.to_dict(), json.loads(text))

    numpy_doc = {
        "f64": np.float64(0.1), "f32": np.float32(0.1), "int": np.int64(-3),
        "bool": np.bool_(True), "reals": np.array([[0.1, 1 / 3], [2.0, -0.0]]),
        "ints": np.arange(3), "tiny": 5e-324, "huge": 1.7976931348623157e308,
    }
    _assert_read_back(numpy_doc, json.loads(report_to_json(numpy_doc)))


def test_report_writer_spells_edge_values():
    doc = {"nan": math.nan, "inf": [math.inf, -math.inf], "zero": -0.0, "whole": 20.0,
           "empty": {"dict": {}, "list": [], "tuple": ()}, "text": "é\"", "none": None}
    assert report_to_json(doc) == "\n".join([
        "{",
        '  "nan": NaN,',
        '  "inf": [',
        "    Infinity,",
        "    -Infinity",
        "  ],",
        '  "zero": -0.0,',
        '  "whole": 20.0,',
        '  "empty": {',
        '    "dict": {},',
        '    "list": [],',
        '    "tuple": []',
        "  },",
        '  "text": "\\u00e9\\"",',
        '  "none": null',
        "}",
    ])
    assert math.copysign(1.0, json.loads(report_to_json(doc))["zero"]) == -1.0
    with pytest.raises(TypeError, match="cannot serialize complex"):
        report_to_json({"z": 1j})
    with pytest.raises(TypeError, match="cannot serialize object"):
        report_to_json([object()])


def test_report_and_coverage_key_order_is_pinned(sbm200):
    # the written keys and their order are the report schema: every block
    # is open, and the subspace and cluster notes are present (radius >= 1,
    # Hamming radius clamped at n)
    n, c = 200, 1 / math.sqrt(200)
    config = config_from_dict({
        "k": 2, "alpha": 0.05,
        "envelope": {"d_max": 39.7, "gap": 20.0},
        "centrality": {"kind": "katz", "beta": 5 / 794, "domain_certified": True},
        "clustering": {"delta": 2 * c, "centers": [[c, c], [c, -c]], "c_row": 5.0},
        "selection_m": 5,
        "fairness": {"groups": [i % 2 for i in range(n)], "targets": [0.5] * n,
                     "tau": 2.0, "epsilon": 0.8},
        "filtration": {"t_grid": [0.05, 0.1]},
    })
    doc = json.loads(run_protocol(sample_adjacency(sbm200, 1), config).to_json())
    assert list(doc) == ["schema_version", "n", "k", "alpha", "observed_gap_proxy", "flags",
                         "certificates", "deviation_quantile", "outputs", "refusals",
                         "diagnostics"]
    assert doc["schema_version"] == 3
    assert list(doc["flags"]) == ["D1", "D2", "D3", "D4"]
    assert all(list(flag) == ["passed", "provenance"] for flag in doc["flags"].values())
    assert doc["refusals"] == []
    out = doc["outputs"]
    assert {name: list(block) for name, block in out.items()} == {
        "subspace": ["radius", "informative", "alpha", "k", "center", "note"],
        "centrality_bands": ["functional", "half_width", "alpha", "point"],
        "stability": ["m", "observed_margin", "threshold", "certified", "selected_set"],
        "cluster": ["labels", "hamming_radius", "alpha", "margin", "margin_provenance",
                    "radius_route", "vacuous", "note"],
        "fairness": ["theta", "certified", "parity_gap_at_scores", "effective_epsilon",
                     "band_radius", "loss"],
        "filtration": ["eta", "t_grid", "snapshots", "note"],
    }
    assert list(out["filtration"]["snapshots"][0]) == [
        "t", "edges_lower", "edges_point", "edges_upper",
        "components_lower", "components_point", "components_upper",
    ]

    result = coverage_experiment(sbm200, CoverageConfig(k=2, alpha=0.1), 2, base_seed=0)
    cov = json.loads(report_to_json(result.to_dict()))
    assert list(cov) == ["replications", "hits", "empirical_coverage", "target",
                         "binomial_sd", "alpha", "base_seed", "claims", "audits"]
    assert list(cov["claims"]) == ["deviation", "subspace", "cluster", "centrality"]
    assert list(cov["claims"]["cluster"]) == ["replications", "hits", "coverage", "evaluated",
                                              "refused", "reason", "extra"]
    assert list(cov["claims"]["cluster"]["extra"]) == ["hamming_radius", "radius_route", "margin"]
    assert list(cov["audits"]["davis_kahan"]) == ["trials", "violations"]


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
    # every field of every block survives the trip through JSON
    for cfg in (_full_config(), config_from_dict(full_config_doc())):
        back = config_from_dict(json.loads(json.dumps(to_json(cfg))))
        for f in dataclasses.fields(cfg):
            block, got = getattr(cfg, f.name), getattr(back, f.name)
            if isinstance(block, SBMSpec):
                assert np.array_equal(got.labels, block.labels) and np.array_equal(got.B, block.B)
            elif dataclasses.is_dataclass(block):
                for g in dataclasses.fields(block):
                    assert getattr(got, g.name) == getattr(block, g.name), (f.name, g.name)
            else:
                assert got == block, f.name


@pytest.mark.parametrize("path,value", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
def test_malformed_config_is_refused_naming_the_key(path, value):
    config_from_dict(full_config_doc())  # the unedited document parses
    with pytest.raises(ValueError, match=path[-1]):
        config_from_dict(malformed(full_config_doc(), path, value))


def test_config_values_are_normalised():
    # well-typed values parse to the same config however they are spelled
    doc = full_config_doc()
    doc["alpha"], doc["filtration"]["t_grid"] = 1 / 10, [0, 1]
    doc["usvt"]["threshold_scale"], doc["fairness"]["tau"] = 2, 1
    cfg = config_from_dict(doc)
    assert cfg.alpha == 0.1 and cfg.filtration.t_grid == (0.0, 1.0)
    assert type(cfg.usvt.threshold_scale) is float and type(cfg.fairness.tau) is float
    assert cfg.clustering.centers == tuple(map(tuple, doc["clustering"]["centers"]))
    # null declares nothing: the default applies
    doc["usvt"]["threshold_scale"], doc["selection_m"] = None, None
    cfg = config_from_dict(doc)
    assert cfg.usvt.threshold_scale == 2.02 and cfg.selection_m is None


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


def _parametric_report(spec, k, centrality=None):
    """The report on a sample of the declared spec, with D1 declared."""
    A = sample_adjacency(build_probability_matrix(spec), 7)
    config = ProtocolConfig(k=k, alpha=0.1, envelope=Envelope(d_max=float(A.n)),
                            parametric_spec=spec, centrality=centrality)
    return run_protocol(A, config)


@pytest.mark.parametrize("n", [200, 600])
def test_disassortative_parametric_gap_is_refused(n):
    # P = Z B Z^T - 0.1 I has lambda_2 = lambda_3 = -0.1 with multiplicity
    # n - 2, so the exact 2-gap is 0; a dense solve returns rounding noise
    # (6.1e-15 at n = 200, 5.7e-13 at n = 600) that is no certificate
    spec = SBMSpec(labels=np.repeat([0, 1], n // 2), B=np.array([[0.1, 0.3], [0.3, 0.1]]))
    report = _parametric_report(spec, 2)
    assert report.flags["D2"].provenance == "parametric certificate is 0"
    assert not report.flags["D2"].passed and report.certificates["gap"] == 0.0
    assert "subspace" not in report.outputs


def test_collision_parametric_gap_is_refused():
    # three blocks of 200 at 1/2: lambda_1 = lambda_2 = lambda_3 = 99.5
    model, _, _ = collision_instance(600, 2)
    report = _parametric_report(model.spec, 2)
    assert report.flags["D2"].provenance == "parametric certificate is 0"
    assert report.certificates["gap"] == 0.0


def test_collision_eigenvector_centrality_is_refused():
    # two blocks of 300 at 1/2: the top eigenvalue 149.5 is double, so
    # neither the 1-gap (D2) nor the top gap (D3) is a certificate
    model, _, _ = collision_instance(600, 1)
    report = _parametric_report(model.spec, 1, CentralityConfig(kind="eigenvector"))
    assert report.flags["D2"].provenance == "parametric certificate is 0"
    assert report.flags["D3"].provenance == "parametric: top gap = 0.0"
    assert not report.flags["D3"].passed
    assert {r["output"]: r["reason"] for r in report.refusals} == {
        "subspace": "no_gap_certificate",
        "centrality_bands": "domain_not_certified",
    }


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_filtration_thresholds_must_be_finite(value):
    # a non-finite threshold would be written as a snapshot of the empty graph
    doc = full_config_doc()
    doc["filtration"]["t_grid"] = [0.1, value]
    with pytest.raises(ValueError, match="declared t_grid must be finite"):
        config_from_dict(doc)


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
    "route,subset,full,values,reduction",
    [("declared_katz", 0, 0, 0, 1), ("usvt_eigenvector", 0, 0, 0, 2),
     ("parametric_eigenvector", 0, 0, 0, 2)],
)
def test_eigensolver_call_counts(sbm200, eig_calls, route, subset, full, values, reduction):
    # one reduction of A serves every consumer; an n = 200 graph's P_hat
    # clips, so the USVT route reduces it once for its gap (an unclipped one
    # is read with no reduction, see test_usvt_gap_reads_the_operator_unless_an_entry_clips),
    # and the parametric P is built and reduced once for the gap and D3
    A = sample_adjacency(sbm200, 56)
    report = run_protocol(A, _eigensolver_route_config(route))
    assert {"subspace", "centrality_bands", "cluster", "filtration"} <= set(report.outputs)
    assert eig_calls == {"subset": subset, "full": full, "values": values,
                         "reduction": reduction}


def test_usvt_gap_beyond_the_kept_pairs_reduces_p_hat(sbm200, eig_calls):
    # a threshold between the two outliers keeps lambda_1 alone, so the
    # 2-gap needs lambda_3 of P_hat, which the Rayleigh-Ritz read cannot
    # certify (k > p): P_hat is reduced, and the gap is that reduction's
    A = sample_adjacency(sbm200, 56)
    doc = {"k": 2, "envelope": {"d_max": 39.7}, "usvt": {"threshold_scale": 4.5, "eps_p": 2.0}}
    report = run_protocol(A, config_from_dict(doc))
    assert eig_calls["reduction"] == 2
    S = eigendecompose(A.A)
    assert _usvt_kept(S, 4.5)[0].size == 1
    want = eigendecompose(usvt_denoise(S, 4.5)).gap(2)
    assert report.diagnostics["usvt"]["empirical_gap_of_denoised"] == want


def _array_equal_calls(monkeypatch, model, route):
    """The (shape, dtype) of each ``np.array_equal`` call made while a graph
    is sampled from ``model`` and run through ``route``'s protocol."""
    compared = []
    array_equal = np.array_equal

    def spy(a1, a2, *args, **kwargs):
        compared.append((np.shape(a1), np.asarray(a1).dtype))
        return array_equal(a1, a2, *args, **kwargs)

    monkeypatch.setattr(np, "array_equal", spy)
    A = sample_adjacency(model, 56)
    assert compared == [((A.n, A.n), np.dtype(np.int8))]
    report = run_protocol(A, _eigensolver_route_config(route))
    assert "filtration" in report.outputs
    return compared


def test_declared_route_checks_each_matrix_once_where_it_enters(sbm200, monkeypatch):
    # the adjacency matrix is compared with its transpose once, as the int8
    # sample, when A is built; its spectrum shares A's checked float64 array
    # and the filtration takes the rows, not a distance matrix to check
    compared = _array_equal_calls(monkeypatch, sbm200, "declared_katz")
    assert ((200, 200), np.dtype(np.float64)) not in compared


@pytest.mark.parametrize("route,p_checks", [
    ("usvt_eigenvector", 0), ("parametric_eigenvector", 1),
])
def test_gap_routes_check_each_matrix_once_where_it_enters(sbm200, monkeypatch, route, p_checks):
    # the USVT P_hat is symmetric by construction and is never compared; the
    # parametric P is compared once, when it is built, not again for its
    # spectrum
    compared = _array_equal_calls(monkeypatch, sbm200, route)
    assert compared.count(((200, 200), np.dtype(np.float64))) == p_checks


def test_parametric_spec_of_another_size_is_refused(sbm200):
    # the spec's P would certify its own gap and Katz domain: a 600-node
    # spec on a 200-node graph ships a radius 3x too small
    from graphcert import two_block_sbm

    A = sample_adjacency(sbm200, 56)
    config = ProtocolConfig(k=2, envelope=Envelope(d_max=39.7),
                            parametric_spec=two_block_sbm(600, 0.3, 0.1).spec)
    with pytest.raises(ShapeMismatch, match="parametric_spec has 600 nodes, the graph has 200"):
        run_protocol(A, config)


def test_fairness_declarations_of_another_size_are_refused(eig_calls):
    # 20 groups and targets on a 40-node graph: refused before any spectral
    # work, whether or not the band slack would have refused fairness later
    doc = full_config_doc()
    doc["fairness"]["groups"], doc["fairness"]["targets"] = [0, 1] * 10, [0.5] * 20
    with pytest.raises(ShapeMismatch, match="20 entries, the graph has 40 nodes"):
        run_protocol(_two_block_40(), config_from_dict(doc))
    assert sum(eig_calls.values()) == 0


@pytest.mark.parametrize("delta,passed,provenance", [
    (None, False, "no clustering margin declared"),
    (0.0, False, "declared margin 0.0 must be positive"),
    (1e-170, False, "declared margin 1e-170 underflows when squared"),
    (0.3, True, "declared margin = 0.3"),
], ids=["undeclared", "zero", "underflow", "positive"])
def test_margin_flag_reads_the_margin_rule(delta, passed, provenance):
    config = config_from_dict({
        "k": 2,
        "envelope": {"d_max": 10, "gap": 10.0},
        "clustering": {"delta": delta, "c_row": 0.01},
    })
    report = run_protocol(_two_block_40(), config)
    assert (report.flags["D4"].passed, report.flags["D4"].provenance) == (passed, provenance)
    refused = [(r["reason"], r["detail"]) for r in report.refusals if r["output"] == "cluster"]
    assert refused == ([] if passed else [("no_margin_declared", provenance)])


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


_BLOCKS_40 = full_config_doc()
_D3_SPEC = {"parametric_spec": _BLOCKS_40["parametric_spec"]}
_NO_BAND = "fairness certification needs a certified score band"
_NO_SCORES = [("stability", "no_scores", "stability needs certified centrality scores"),
              ("fairness", "domain_not_certified", _NO_BAND)]
_RHO_P = "parametric: rho(P) = 11.499999999999995"
_MODULUS_OVERFLOW = ("declared gamma = 1e-308; gamma must be positive and finite, "
                     "with 2/gamma finite")
_KATZ_OVERFLOW = "declared; beta must be positive, with 4*beta finite"
_BAND_OVERFLOW = ("declared gamma = 1e-307; modulus 2.0000000000000002e+307 times "
                  "q = 23.642110653423995 overflows")

# name -> (declared blocks, D3 (passed, provenance), certificates.centrality_domain,
#          band (functional, half_width) or None, ordered refusals of the
#          centrality_bands, stability and fairness outputs)
D3_OUTCOMES = {
    "katz_parametric_inside": (
        {**_D3_SPEC, "centrality": {"kind": "katz", "beta": 0.01}},
        (True, f"{_RHO_P} vs limit 50.0"), True, ("katz(beta=0.01)", 0.9456844261369598), []),
    "katz_parametric_outside": (
        {**_D3_SPEC, "centrality": {"kind": "katz", "beta": 0.5, "domain_certified": True}},
        (False, f"{_RHO_P} vs limit 1.0"), False, None,
        [("centrality_bands", "domain_not_certified", f"{_RHO_P} vs limit 1.0"), *_NO_SCORES]),
    "katz_declared": (
        {"centrality": {"kind": "katz", "beta": 0.01, "domain_certified": True}},
        (True, "declared"), True, ("katz(beta=0.01)", 0.9456844261369598), []),
    "katz_not_declared": (
        {"centrality": {"kind": "katz", "beta": 0.01}},
        (False, "not declared or certified"), False, None,
        [("centrality_bands", "domain_not_certified", "not declared or certified"),
         *_NO_SCORES]),
    "katz_refused_at_observation": (
        {"centrality": {"kind": "katz", "beta": 0.5, "domain_certified": True}},
        (True, "declared"), True, None,
        [("centrality_bands", "domain_violated_at_observation",
          "spectral radius 12.618802568489963 exceeds the certified domain limit 1.0"),
         ("stability", "no_scores", "stability needs certified centrality scores"),
         ("fairness", "no_scores", _NO_BAND)]),
    "eigenvector_parametric": (
        {**_D3_SPEC, "centrality": {"kind": "eigenvector", "gamma": 5.0}},
        (True, "parametric: top gap = 3.999999999999994"), True,
        ("eigenvector", 11.821055326712015),
        [("fairness", "insufficient_tolerance", "epsilon 1.0 < band slack 1.1821055326712016")]),
    "eigenvector_declared": (
        {"centrality": {"kind": "eigenvector", "gamma": 5.0, "domain_certified": True}},
        (True, "declared gamma = 5.0"), True, ("eigenvector", 9.456844261369598), []),
    "eigenvector_gamma_zero": (
        {"centrality": {"kind": "eigenvector", "gamma": 0.0, "domain_certified": True}},
        (False, "declared gamma = 0.0"), False, None,
        [("centrality_bands", "domain_not_certified", "declared gamma = 0.0"), *_NO_SCORES]),
    "eigenvector_gamma_not_certified": (
        {"centrality": {"kind": "eigenvector", "gamma": 5.0}},
        (False, "not declared or certified"), False, None,
        [("centrality_bands", "domain_not_certified", "not declared or certified"),
         *_NO_SCORES]),
    # 2/gamma overflows, and so does 4 beta; at gamma = 1e-307 the modulus
    # is finite and the half-width L q overflows
    "eigenvector_band_overflows": (
        {"centrality": {"kind": "eigenvector", "gamma": 1e-308, "domain_certified": True}},
        (False, _MODULUS_OVERFLOW), False, None,
        [("centrality_bands", "domain_not_certified", _MODULUS_OVERFLOW), *_NO_SCORES]),
    "katz_band_overflows": (
        {"centrality": {"kind": "katz", "beta": 1e308, "domain_certified": True}},
        (False, _KATZ_OVERFLOW), False, None,
        [("centrality_bands", "domain_not_certified", _KATZ_OVERFLOW), *_NO_SCORES]),
    "eigenvector_half_width_overflows": (
        {"centrality": {"kind": "eigenvector", "gamma": 1e-307, "domain_certified": True}},
        (False, _BAND_OVERFLOW), False, None,
        [("centrality_bands", "domain_not_certified", _BAND_OVERFLOW), *_NO_SCORES]),
    "eigenvector_declared_no_d_max": (
        {"envelope": {"gap": 10.0},
         "centrality": {"kind": "eigenvector", "gamma": 5.0, "domain_certified": True}},
        (True, "declared gamma = 5.0"), True, None,
        [("centrality_bands", "no_degree_envelope", "no d_max declared"),
         ("stability", "no_scores", "stability needs certified centrality scores"),
         ("fairness", "no_degree_envelope", _NO_BAND)]),
    "no_centrality": (
        {},
        (False, "no centrality functional declared"), None, None,
        [("stability", "no_centrality_functional",
          "declare a centrality block to score the selection"),
         ("fairness", "domain_not_certified", _NO_BAND)]),
}


@pytest.mark.parametrize("name", D3_OUTCOMES)
def test_every_d3_outcome_pins_flag_band_and_refusals(name):
    # one n = 40 graph; a parametric spec decides D3 before any declaration
    blocks, flag, domain, band, refused = D3_OUTCOMES[name]
    doc = {"k": 2, "alpha": 0.05, "envelope": _BLOCKS_40["envelope"], "selection_m": 3,
           "fairness": {**_BLOCKS_40["fairness"], "tau": 10.0, "epsilon": 1.0}, **blocks}
    report = run_protocol(_two_block_40(), config_from_dict(doc))
    assert (report.flags["D3"].passed, report.flags["D3"].provenance) == flag
    assert report.certificates["centrality_domain"] is domain
    got = report.outputs.get("centrality_bands")
    if band is None:
        assert got is None
    else:
        assert (got["functional"], got["half_width"]) == band
    assert [(r["output"], r["reason"], r["detail"]) for r in report.refusals
            if r["output"] in ("centrality_bands", "stability", "fairness")] == refused

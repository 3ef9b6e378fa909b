import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphcert import (
    DegenerateTopEigenvalue,
    DuplicateCenters,
    Envelope,
    NonpositiveGap,
    NonpositiveMargin,
    OrthonormalBasis,
    OutsideDomain,
    centrality_bands,
    cluster_region,
    eigendecompose,
    eigenvector_centrality,
    katz_centrality,
    katz_modulus,
    nearest_center_round,
    perm_hamming_distance,
    region_contains,
    rounding_error_bound,
    sample_adjacency,
    stability_certificate,
    subspace_region,
    top_m_selection,
)
from graphcert.concentration import deviation_quantile

from conftest import random_orthogonal, random_orthonormal


# ---------------------------------------------------------------------------
# subspace regions

def test_perfect_information_limit_gives_radius_zero(rng, sbm200):
    A = sample_adjacency(sbm200, 1)
    certs = Envelope(d_max=0.0, gap=20.0)
    region = subspace_region(eigendecompose(A.A), 2, certs, alpha=0.05)
    assert region.radius == 0.0
    assert region.informative
    # the region holds exactly the rotations of its center
    Q = random_orthogonal(rng, 2)
    assert region_contains(OrthonormalBasis(U=region.center.U @ Q), region)


def test_worked_instance_radius_flagged_vacuous(sbm200):
    A = sample_adjacency(sbm200, 2)
    certs = Envelope(d_max=39.7, gap=20.0)
    region = subspace_region(eigendecompose(A.A), 2, certs, alpha=0.05)
    q = deviation_quantile(39.7, 200, 0.05).q
    assert abs(region.radius - 2 * q / 20.0) < 1e-12
    assert region.radius > 1.0
    assert region.informative is False


def test_subspace_region_refuses_without_gap(sbm200):
    A = sample_adjacency(sbm200, 3)
    with pytest.raises(NonpositiveGap):
        subspace_region(eigendecompose(A.A), 2, Envelope(d_max=39.7, gap=0.0), alpha=0.05)
    with pytest.raises(NonpositiveGap):
        subspace_region(eigendecompose(A.A), 2, Envelope(d_max=39.7, gap=None), alpha=0.05)


@pytest.mark.parametrize("field", ["d_max", "gap"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_subspace_region_takes_only_a_checked_envelope(sbm200, field, value):
    # an infinite gap would give radius 2q/gap = 0 flagged informative; the
    # region reads its certificates from an Envelope, which refuses them
    S = eigendecompose(sample_adjacency(sbm200, 3).A)
    region = subspace_region(S, 2, envelope=Envelope(d_max=39.7, gap=20.0), alpha=0.05)
    assert region.radius == 2 * deviation_quantile(39.7, 200, 0.05).q / 20.0
    with pytest.raises(ValueError, match=f"declared {field} must be finite"):
        subspace_region(S, 2, Envelope(**{"d_max": 39.7, "gap": 20.0, field: value}), 0.05)


def test_region_contains_rotation_invariance(rng, sbm200):
    A = sample_adjacency(sbm200, 4)
    region = subspace_region(eigendecompose(A.A), 2, Envelope(d_max=39.7, gap=20.0), 0.1)
    U = OrthonormalBasis(U=random_orthonormal(rng, 200, 2))
    for _ in range(5):
        Q = random_orthogonal(rng, 2)
        assert region_contains(U, region) == region_contains(
            OrthonormalBasis(U=U.U @ Q), region
        )


def test_region_contains_antipodal_case():
    center = OrthonormalBasis(U=np.array([[1.0], [0.0]]))
    # build a radius-0.5 region by hand around e1
    from graphcert.inference import SubspaceRegion
    from graphcert.concentration import DeviationQuantile

    region = SubspaceRegion(
        center=center,
        radius=0.5,
        alpha=0.1,
        informative=True,
        quantile=DeviationQuantile(q=0.25, alpha=0.1, v_bound=1.0, n=2),
    )
    assert region_contains(center, region)
    e2 = OrthonormalBasis(U=np.array([[0.0], [1.0]]))
    assert not region_contains(e2, region)


# ---------------------------------------------------------------------------
# rounding and Hamming machinery

def test_nearest_center_identity_pattern():
    centers = np.array([[0.0, 0.0], [10.0, 10.0], [-5.0, 5.0]])
    labels = nearest_center_round(centers, centers)
    assert np.array_equal(labels, [0, 1, 2])


def test_nearest_center_worked_rows(sbm200):
    n = 200
    rows = np.stack(
        [np.full(n, 1 / math.sqrt(n)),
         np.concatenate([np.full(100, 1 / math.sqrt(n)), np.full(100, -1 / math.sqrt(n))])],
        axis=1,
    )
    centers = np.array(
        [[1 / math.sqrt(n), 1 / math.sqrt(n)], [1 / math.sqrt(n), -1 / math.sqrt(n)]]
    )
    labels = nearest_center_round(rows, centers)
    assert np.array_equal(labels, np.repeat([0, 1], 100))


def test_nearest_center_stable_under_small_perturbation(rng):
    centers = rng.normal(size=(3, 2))
    delta = min(
        np.linalg.norm(centers[a] - centers[b])
        for a in range(3)
        for b in range(3)
        if a < b
    )
    truth = rng.integers(0, 3, size=50)
    rows = centers[truth]
    for _ in range(100):
        noise = rng.normal(size=rows.shape)
        noise *= (delta / 4) * 0.99 / np.linalg.norm(noise, axis=1, keepdims=True)
        labels = nearest_center_round(rows + noise, centers)
        assert np.array_equal(labels, truth)


def test_nearest_center_duplicate_centers_rejected():
    centers = np.array([[1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(DuplicateCenters):
        nearest_center_round(np.zeros((3, 2)), centers)


def _brute_force_perm_hamming(g, h):
    K = int(max(g.max(), h.max())) + 1
    best = len(g) + 1
    for perm in itertools.permutations(range(K)):
        mapped = np.array([perm[v] for v in h])
        best = min(best, int(np.sum(g != mapped)))
    return best


def test_perm_hamming_trivial():
    g = np.array([0, 0, 1, 1, 2])
    assert perm_hamming_distance(g, g) == 0
    swapped = np.array([1, 1, 0, 0, 2])
    assert perm_hamming_distance(g, swapped) == 0
    many = np.arange(9)  # the matching is exact for any number of labels
    assert perm_hamming_distance(many, many[::-1]) == 0


def test_perm_hamming_matches_brute_force(rng):
    for _ in range(25):
        g = rng.integers(0, 3, size=12)
        h = rng.integers(0, 3, size=12)
        oracle = _brute_force_perm_hamming(g, h)
        assert perm_hamming_distance(g, h) == oracle


def test_perm_hamming_pseudometric_small(rng):
    # zero iff equal up to permutation, exhaustively at small n, K
    n, K = 5, 2
    all_assignments = list(itertools.product(range(K), repeat=n))
    for g in all_assignments[:16]:
        for h in all_assignments[:16]:
            d = perm_hamming_distance(np.array(g), np.array(h))
            equal_up_to_perm = any(
                all(perm[h[i]] == g[i] for i in range(n))
                for perm in itertools.permutations(range(K))
            )
            assert (d == 0) == equal_up_to_perm
    for _ in range(20):
        a = rng.integers(0, 3, size=10)
        b = rng.integers(0, 3, size=10)
        c = rng.integers(0, 3, size=10)
        assert perm_hamming_distance(a, b) <= (
            perm_hamming_distance(a, c) + perm_hamming_distance(c, b)
        )


@given(
    eta=st.floats(0, 10, allow_nan=False),
    delta=st.floats(0.01, 10, allow_nan=False),
    n=st.integers(1, 1000),
)
def test_rounding_error_bound_formula(eta, delta, n):
    out = rounding_error_bound(eta, delta, n)
    assert out.hamming_bound == min(n, math.ceil(16 * n * eta * eta / (delta * delta)))
    assert out.exact == (eta < delta / 4)


def test_rounding_error_bound_examples():
    assert rounding_error_bound(0.125, 1.0, 50).exact is True
    out = rounding_error_bound(0.5, 1.0, 100)
    assert out.hamming_bound == 100  # ceil(400) clamped to n
    with pytest.raises(NonpositiveMargin):
        rounding_error_bound(0.1, 0.0, 10)


def test_rounding_bound_holds_on_synthetic_rows(rng):
    # mean-square premise realized exactly; mislabels never exceed the bound
    centers = np.array([[1.0, 0.0], [-1.0, 0.0]])
    delta = 2.0
    n = 60
    for _ in range(1000):
        truth = rng.integers(0, 2, size=n)
        rows = centers[truth] + rng.normal(scale=0.3, size=(n, 2))
        eta2 = float(np.mean(np.sum((rows - centers[truth]) ** 2, axis=1)))
        labels = nearest_center_round(rows, centers)
        mislabels = int(np.sum(labels != truth))
        assert mislabels <= 16 * n * eta2 / (delta * delta) + 1e-9


# ---------------------------------------------------------------------------
# cluster regions

def test_cluster_region_worked_formula(sbm200):
    A = sample_adjacency(sbm200, 11)
    certs = Envelope(d_max=39.7, gap=20.0)
    n = 200
    delta = 2 / math.sqrt(n)
    centers = np.array(
        [[1 / math.sqrt(n), 1 / math.sqrt(n)], [1 / math.sqrt(n), -1 / math.sqrt(n)]]
    )
    region = cluster_region(
        subspace_region(eigendecompose(A.A), 2, certs, 0.05), delta, centers=centers
    )
    q = deviation_quantile(39.7, n, 0.05).q
    r = 2 * q / 20.0
    assert region.hamming_radius == min(n, math.ceil(16 * (2 * 2 * r * r) / delta**2))
    assert region.vacuous  # this noise level cannot localize labels
    assert region.margin_provenance == "declared-centers"

    # worked-instance identity in exact arithmetic: with Delta^2 = 4/n the
    # bound 16 * (2 k r^2) / Delta^2 at k = 2 is exactly 16 n r^2 = 3200 r^2
    from fractions import Fraction

    rr = Fraction(1, 3)
    d2 = Fraction(4, n)
    assert 16 * (2 * 2 * rr**2) / d2 == 3200 * rr**2


def test_cluster_region_zero_radius_exact_claim(sbm200):
    A = sample_adjacency(sbm200, 12)
    certs = Envelope(d_max=0.0, gap=20.0)
    delta = 2 / math.sqrt(200)
    region = cluster_region(subspace_region(eigendecompose(A.A), 2, certs, 0.05), delta)
    assert region.hamming_radius == 0
    assert not region.vacuous
    # no declared centers: K-means rounding, margin is a domain assumption
    assert region.margin_provenance == "declared-assumption"


def test_alignment_handles_unequal_blocks():
    from graphcert import SBMSpec, build_probability_matrix
    from graphcert.inference import align_to_centers

    labels = np.repeat([0, 1], [30, 90])
    model = build_probability_matrix(
        SBMSpec.from_labels(labels, [[0.9, 0.05], [0.05, 0.8]])
    )
    U_star = eigendecompose(model.P).top_k(2)
    centers = np.stack(
        [U_star.U[labels == a].mean(axis=0) for a in range(2)]
    )
    for seed in range(5):
        A = sample_adjacency(model, seed)
        U_hat = eigendecompose(A.A).top_k(2)
        _, found = align_to_centers(U_hat, centers)
        assert perm_hamming_distance(found, labels) == 0


def test_cluster_region_requires_margin(sbm200):
    A = sample_adjacency(sbm200, 13)
    with pytest.raises(NonpositiveMargin):
        cluster_region(
            subspace_region(eigendecompose(A.A), 2, Envelope(d_max=39.7, gap=20.0), 0.05),
            0.0,
        )


def test_cluster_region_propagates_gap_refusal(sbm200):
    A = sample_adjacency(sbm200, 14)
    with pytest.raises(NonpositiveGap):
        cluster_region(
            subspace_region(eigendecompose(A.A), 2, Envelope(d_max=39.7, gap=0.0), 0.05),
            0.1,
        )


def test_cluster_region_uniform_branch_strong_signal():
    from graphcert import two_block_sbm

    model = two_block_sbm(80, 0.9, 0.1)
    A = sample_adjacency(model, 15)
    # a tiny declared c_row turns on the uniform branch: radius 0
    certs = Envelope(d_max=1.0, gap=30.0)
    delta = 2 / math.sqrt(80)
    region = cluster_region(
        subspace_region(eigendecompose(A.A), 2, certs, 0.05), delta, c_row=1e-4
    )
    assert region.radius_route == "uniform_rowwise"
    assert region.hamming_radius == 0


def test_cluster_region_recovers_strong_signal_labels():
    from graphcert import two_block_sbm

    model = two_block_sbm(80, 0.9, 0.05)
    truth = model.spec.labels
    n = 80
    centers = np.array(
        [[1 / math.sqrt(n), 1 / math.sqrt(n)], [1 / math.sqrt(n), -1 / math.sqrt(n)]]
    )
    for seed in range(5):
        A = sample_adjacency(model, seed)
        region = cluster_region(
            subspace_region(eigendecompose(A.A), 2, Envelope(d_max=40.0, gap=30.0), 0.05),
            2 / math.sqrt(n), centers=centers,
        )
        assert perm_hamming_distance(region.labels, truth) == 0


# ---------------------------------------------------------------------------
# centralities

def test_katz_zero_matrix():
    assert np.allclose(katz_centrality(eigendecompose(np.zeros((4, 4))), 0.1), 0.0)


def test_katz_regular_graph_closed_form():
    # 3-regular: complete graph K4; uniform score 1/(1 - beta k) - 1
    A = np.ones((4, 4)) - np.eye(4)
    beta = 0.1
    scores = katz_centrality(eigendecompose(A), beta)
    assert np.allclose(scores, 1 / (1 - beta * 3) - 1, atol=1e-12)


def test_katz_matches_neumann_series(rng):
    # series oracle: sum_{s=1..50} beta^s M^s 1
    n = 8
    M = rng.normal(size=(n, n))
    M = (M + M.T) / 2
    rho = np.max(np.abs(np.linalg.eigvalsh(M)))
    beta = 1 / (4 * rho)
    scores = katz_centrality(eigendecompose(M), beta)
    acc = np.zeros(n)
    term = np.ones(n)
    for _ in range(50):
        term = beta * (M @ term)
        acc += term
    assert np.max(np.abs(scores - acc)) < 1e-8


def test_katz_domain_rejection(rng):
    M = np.ones((4, 4)) - np.eye(4)  # rho = 3
    with pytest.raises(OutsideDomain) as exc:
        katz_centrality(eigendecompose(M), beta=1.0)  # limit 0.5 < 3
    assert exc.value.rho > exc.value.limit
    # boundary inclusive: rho = 1/(2 beta) passes
    katz_centrality(eigendecompose(M), beta=1.0 / 6.0)


def test_katz_modulus_worked_constants():
    beta = 5 / 794
    assert katz_modulus(beta) == 10 / 397
    # beta = 1/(4 rho(P)) puts the model a factor 2 inside the domain
    assert abs(beta * 39.7 - 0.25) < 1e-12


def test_eigenvector_centrality_diagonal():
    v, gamma = eigenvector_centrality(eigendecompose(np.diag([3.0, 1.0, 1.0])))
    assert np.allclose(v, [1, 0, 0])
    assert abs(gamma - 2.0) < 1e-12


def test_eigenvector_centrality_worked_instance(sbm200):
    v, gamma = eigenvector_centrality(eigendecompose(sbm200.P))
    assert abs(gamma - 20.0) < 1e-9
    assert np.allclose(v, 1 / math.sqrt(200), atol=1e-9)
    assert v.sum() > 0


def test_eigenvector_centrality_rejects_degenerate():
    with pytest.raises(DegenerateTopEigenvalue):
        eigenvector_centrality(eigendecompose(np.eye(3)))


def test_eigenvector_centrality_matches_direct_eigh(sbm200):
    A = sample_adjacency(sbm200, 16)
    w, V = np.linalg.eigh(A.A)
    v = V[:, -1] if V[:, -1].sum() >= 0 else -V[:, -1]
    got, gamma = eigenvector_centrality(eigendecompose(A.A))
    assert np.array_equal(got, v)
    assert gamma == float(w[-1] - w[-2])


def test_eigenvector_perturbation_modulus(rng):
    # one-dimensional projector perturbation: ||v - v'|| <= 2 ||E|| / gamma
    M = np.diag([5.0, 2.0, 1.0, 0.5])
    base, gamma = eigenvector_centrality(eigendecompose(M))
    for _ in range(200):
        E = rng.normal(size=(4, 4))
        E = (E + E.T) / 2
        E *= 0.2 / np.linalg.norm(E, 2)
        pert, _ = eigenvector_centrality(eigendecompose(M + E))
        assert np.linalg.norm(pert - base) <= 2 * 0.2 / gamma + 1e-9


def test_centrality_bands_basic():
    point = np.array([1.0, 2.0, 3.0])
    band = centrality_bands(point, L=0.0, q=5.0, alpha=0.1)
    assert band.half_width == 0.0
    assert band.contains(point)
    assert not band.contains(point + 1e-9)

    band = centrality_bands(point, L=10 / 397, q=7.0, alpha=0.1)
    assert abs(band.half_width - (10 / 397) * 7.0) < 1e-15
    assert np.allclose(band.upper() - band.lower(), 2 * band.half_width)


def test_band_monotonicity_via_quantile():
    # half-width nonincreasing in alpha, nondecreasing in d_max
    from graphcert import deviation_quantile_from_envelope

    L = 0.1
    q_tight = deviation_quantile_from_envelope(10.0, 100, 0.01).q
    q_loose = deviation_quantile_from_envelope(10.0, 100, 0.2).q
    assert L * q_loose <= L * q_tight
    q_small = deviation_quantile_from_envelope(5.0, 100, 0.05).q
    q_large = deviation_quantile_from_envelope(50.0, 100, 0.05).q
    assert L * q_small <= L * q_large


# ---------------------------------------------------------------------------
# selection

def test_top_m_unique_case():
    sel = top_m_selection(np.array([3.0, 2.0, 1.0]), 1)
    assert sel.sets == ((0,),)
    assert sel.unique
    assert sel.margin == 1.0


def test_top_m_tie_case():
    sel = top_m_selection(np.array([2.0, 2.0, 1.0]), 1)
    assert sel.num_admissible == 2
    assert set(sel.sets) == {(0,), (1,)}
    assert sel.margin is None


def test_top_m_margin_matches_sort_oracle(rng):
    for _ in range(100):
        x = rng.normal(size=12)
        m = int(rng.integers(1, 11))
        sel = top_m_selection(x, m)
        xs = np.sort(x)[::-1]
        if xs[m - 1] > xs[m]:
            assert sel.unique
            assert abs(sel.margin - (xs[m - 1] - xs[m])) < 1e-15
        else:
            assert not sel.unique


def test_stability_certificate_arithmetic():
    x = np.array([1.0, 0.5, 0.2])
    cert = stability_certificate(x, m=1, half_width=0.1)
    assert cert.threshold == 0.2
    assert cert.observed_margin == 0.5
    assert cert.certified
    assert cert.selected_set == (0,)


def test_stability_certificate_tie_never_certified():
    x = np.array([2.0, 2.0, 1.0])
    cert = stability_certificate(x, m=1, half_width=0.0)
    assert not cert.certified
    assert cert.selected_set is None
    # near-tie within tolerance is reported, not certified
    x = np.array([1.0, 1.0 - 1e-13, 0.0])
    cert = stability_certificate(x, m=1, half_width=0.0)
    assert not cert.certified


def test_cluster_hamming_radius_clamps_before_the_ceiling():
    from graphcert import cluster_hamming_radius

    # r^2 overflows to inf; both routes clamp at n instead of ceil(inf)
    assert cluster_hamming_radius(1e200, 2, 0.3, 40) == (40, "mean_square")
    assert cluster_hamming_radius(1e200, 2, 0.3, 40, c_row=0.01) == (40, "uniform_rowwise")
    assert rounding_error_bound(1e200, 0.3, 40).hamming_bound == 40

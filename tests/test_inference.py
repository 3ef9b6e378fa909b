import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphcert import (
    BadLevel,
    DegenerateTopEigenvalue,
    DuplicateCenters,
    NonFiniteRows,
    NonpositiveGap,
    NonpositiveMargin,
    OrthonormalBasis,
    OutsideDomain,
    ShapeMismatch,
    cluster_hamming_radius,
    cluster_region,
    davis_kahan_radius,
    eigendecompose,
    eigenvector_centrality,
    grassmann_distance,
    katz_centrality,
    katz_modulus,
    nearest_center_round,
    perm_hamming_distance,
    rounding_error_bound,
    sample_adjacency,
    stability_certificate,
    subspace_region,
    top_m_selection,
    weyl_gap_certificate,
)
from graphcert.concentration import deviation_quantile, deviation_quantile_from_envelope
from graphcert.inference import CentralityBand, eigenvector_modulus, kmeans_labels
from graphcert.linalg import Spectrum
from graphcert.models import AdjacencyMatrix
from graphcert.simulation import CONTAIN_TOL

from conftest import random_orthogonal


# ---------------------------------------------------------------------------
# subspace regions

def test_perfect_information_limit_gives_radius_zero(rng, sbm200):
    A = sample_adjacency(sbm200, 1)
    q = deviation_quantile_from_envelope(0.0, 200, 0.05).q
    region = subspace_region(eigendecompose(A.A), 2, q, 20.0, alpha=0.05)
    assert region.radius == 0.0
    assert region.informative
    # the region holds exactly the rotations of its center
    Q = random_orthogonal(rng, 2)
    rotated = OrthonormalBasis(U=region.center.U @ Q)
    assert grassmann_distance(rotated, region.center) <= region.radius + CONTAIN_TOL


def test_worked_instance_radius_flagged_vacuous(sbm200):
    A = sample_adjacency(sbm200, 2)
    q = deviation_quantile(39.7, 200, 0.05).q
    region = subspace_region(eigendecompose(A.A), 2, q, 20.0, alpha=0.05)
    assert abs(region.radius - 2 * q / 20.0) < 1e-12
    assert region.radius > 1.0
    assert region.informative is False


def test_subspace_region_refuses_without_gap(sbm200):
    A = sample_adjacency(sbm200, 3)
    q = deviation_quantile(39.7, 200, 0.05).q
    with pytest.raises(NonpositiveGap):
        subspace_region(eigendecompose(A.A), 2, q, 0.0, alpha=0.05)
    with pytest.raises(NonpositiveGap):
        subspace_region(eigendecompose(A.A), 2, q, None, alpha=0.05)


@pytest.mark.parametrize("field", ["q", "gap"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_subspace_region_refuses_a_nonfinite_q_or_gap(sbm200, field, value):
    # an infinite gap would give radius 2q/gap = 0 flagged informative; the
    # region takes q and the gap as reals, and refuses them unless finite
    S = eigendecompose(sample_adjacency(sbm200, 3).A)
    q = deviation_quantile(39.7, 200, 0.05).q
    region = subspace_region(S, 2, q, 20.0, alpha=0.05)
    assert region.radius == 2 * q / 20.0
    certs = {"q": q, "gap": 20.0, field: value}
    name = {"q": "deviation bound", "gap": "gap certificate"}[field]
    with pytest.raises(ValueError, match=f"{name} .*finite"):
        subspace_region(S, 2, certs["q"], certs["gap"], 0.05)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 7.0, -0.1, math.nan])
def test_subspace_region_refuses_a_bad_level(sbm200, alpha):
    # the region states the level of the q it was given; one outside (0, 1)
    # is no level at all
    S = eigendecompose(sample_adjacency(sbm200, 3).A)
    with pytest.raises(BadLevel):
        subspace_region(S, 2, 10.0, 20.0, alpha)


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


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["rows", "centers"])
def test_nearest_center_refuses_non_finite_rows(value, where):
    # a NaN row has no nearest center; argmin would label it 0
    rows, centers = np.zeros((3, 2)), np.array([[1.0, 0.0], [-1.0, 0.0]])
    {"rows": rows, "centers": centers}[where][1, 0] = value
    with pytest.raises(NonFiniteRows, match="NaN or an infinity"):
        nearest_center_round(rows, centers)


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


@st.composite
def _label_pairs(draw):
    """Two assignments of equal length n <= 50 over labels 0..K-1, K <= 6;
    a label value may go unused in either or both."""
    K = draw(st.integers(1, 6))
    n = draw(st.integers(1, 50))
    labels = st.lists(st.integers(0, K - 1), min_size=n, max_size=n)
    return np.array(draw(labels)), np.array(draw(labels))


@given(_label_pairs())
def test_perm_hamming_matches_the_best_permutation_of_the_confusion(pair):
    g, h = pair
    K = int(max(g.max(), h.max())) + 1
    conf = np.zeros((K, K), dtype=np.int64)
    np.add.at(conf, (g, h), 1)
    perms = np.array(list(itertools.permutations(range(K))))
    best = int(conf[np.arange(K), perms].sum(axis=1).max())
    assert perm_hamming_distance(g, h) == g.size - best


def test_perm_hamming_matches_csgraph_matching_for_many_labels():
    # scipy's sparse matching is the oracle past the brute-force range
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    rng = np.random.default_rng(29)
    for K in range(7, 61):
        n = int(rng.integers(K, 8 * K))
        g = rng.integers(0, K, size=n)
        h = np.where(rng.random(n) < 0.6, rng.permutation(K)[g], rng.integers(0, K, size=n))
        conf = np.zeros((K, K), dtype=np.int64)
        np.add.at(conf, (g, h), 1)
        row, col = min_weight_full_bipartite_matching(csr_array(conf.max() + 1 - conf))
        assert perm_hamming_distance(g, h) == n - int(conf[row, col].sum())


@pytest.mark.parametrize(
    "g,h,error",
    [
        ([0, 1], [0, 1, 1], ShapeMismatch),
        ([[0, 1]], [[0, 1]], ShapeMismatch),
        (0, 0, ShapeMismatch),
        ([0, -1], [0, 1], ValueError),
        ([0, 1], [-2, 1], ValueError),
    ],
)
def test_perm_hamming_refusals(g, h, error):
    with pytest.raises(error):
        perm_hamming_distance(g, h)


def test_perm_hamming_of_empty_assignments_is_zero():
    assert perm_hamming_distance([], []) == 0


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


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: rounding_error_bound(0.1, math.nan, 10), NonpositiveMargin),
        (lambda: rounding_error_bound(math.nan, 0.5, 10), ValueError),
        (lambda: cluster_hamming_radius(0.1, 2, math.nan, 10), NonpositiveMargin),
        (lambda: cluster_hamming_radius(0.1, 2, 0.5, 10, eta=math.nan * 0.1), ValueError),
    ],
    ids=["margin", "eta", "cluster-margin", "c_row"],
)
def test_rounding_and_cluster_radius_refuse_nan(call, error):
    # refused by the parameter check, not by math.ceil failing on a NaN bound
    with pytest.raises(error, match="positive|nonnegative"):
        call()


@pytest.mark.parametrize("n", [-3, 0, 2.5, 10.0, True])
@pytest.mark.parametrize("radius", [rounding_error_bound, cluster_hamming_radius])
def test_rounding_and_cluster_radius_refuse_a_bad_node_count(radius, n):
    # both radii are clamped at n, so a negative n would give a negative
    # Hamming bound
    args = (0.1, 0.5) if radius is rounding_error_bound else (0.1, 2, 0.5)
    with pytest.raises(ValueError, match="^n must be"):
        radius(*args, n)


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
    n = 200
    delta = 2 / math.sqrt(n)
    centers = np.array(
        [[1 / math.sqrt(n), 1 / math.sqrt(n)], [1 / math.sqrt(n), -1 / math.sqrt(n)]]
    )
    q = deviation_quantile(39.7, n, 0.05).q
    region = cluster_region(
        subspace_region(eigendecompose(A.A), 2, q, 20.0, 0.05), delta, centers=centers
    )
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
    q = deviation_quantile_from_envelope(0.0, 200, 0.05).q
    delta = 2 / math.sqrt(200)
    region = cluster_region(subspace_region(eigendecompose(A.A), 2, q, 20.0, 0.05), delta)
    assert region.hamming_radius == 0
    assert not region.vacuous
    # no declared centers: K-means rounding, margin is a domain assumption
    assert region.margin_provenance == "declared-assumption"


def test_alignment_handles_unequal_blocks():
    from graphcert import SBMSpec, build_probability_matrix
    from graphcert.inference import center_separation

    labels = np.repeat([0, 1], [30, 90])
    model = build_probability_matrix(
        SBMSpec(labels=labels, B=[[0.9, 0.05], [0.05, 0.8]])
    )
    U_star = eigendecompose(model.P).top_k(2)
    centers = np.stack(
        [U_star.U[labels == a].mean(axis=0) for a in range(2)]
    )
    q = deviation_quantile(40.0, 120, 0.05).q
    for seed in range(5):
        A = sample_adjacency(model, seed)
        region = subspace_region(eigendecompose(A.A), 2, q, 30.0, 0.05)
        found = cluster_region(region, center_separation(centers), centers=centers).labels
        assert perm_hamming_distance(found, labels) == 0


@pytest.mark.parametrize("K", [2, 3])
def test_declared_centers_take_the_kmeans_labels(sbm200, K):
    # declared centers fix K and certify the margin; the labels are the
    # same deterministic K-means labels as the route without centers
    S = eigendecompose(sample_adjacency(sbm200, 16).A)
    region = subspace_region(S, 2, deviation_quantile(39.7, 200, 0.05).q, 20.0, 0.05)
    c = 1 / math.sqrt(200)
    centers = np.array([[c, c], [c, -c], [-c, 0.0]])[:K]
    creg = cluster_region(region, 2 * c, centers=centers)
    assert np.array_equal(creg.labels, kmeans_labels(region.center.U, K))
    assert creg.margin_provenance == "declared-centers"
    with pytest.raises(ShapeMismatch):
        cluster_region(region, 2 * c, centers=np.ones((K, 3)))


def test_cluster_region_requires_margin(sbm200):
    A = sample_adjacency(sbm200, 13)
    q = deviation_quantile(39.7, 200, 0.05).q
    with pytest.raises(NonpositiveMargin):
        cluster_region(
            subspace_region(eigendecompose(A.A), 2, q, 20.0, 0.05),
            0.0,
        )


def test_cluster_region_propagates_gap_refusal(sbm200):
    A = sample_adjacency(sbm200, 14)
    q = deviation_quantile(39.7, 200, 0.05).q
    with pytest.raises(NonpositiveGap):
        cluster_region(
            subspace_region(eigendecompose(A.A), 2, q, 0.0, 0.05),
            0.1,
        )


def test_cluster_region_uniform_branch_strong_signal():
    from graphcert import two_block_sbm

    model = two_block_sbm(80, 0.9, 0.1)
    A = sample_adjacency(model, 15)
    # a tiny declared c_row turns on the uniform branch: radius 0
    q = deviation_quantile(1.0, 80, 0.05).q
    delta = 2 / math.sqrt(80)
    subspace = subspace_region(eigendecompose(A.A), 2, q, 30.0, 0.05)
    region = cluster_region(subspace, delta, eta=1e-4 * subspace.radius)
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
    q = deviation_quantile(40.0, n, 0.05).q
    for seed in range(5):
        A = sample_adjacency(model, seed)
        region = cluster_region(
            subspace_region(eigendecompose(A.A), 2, q, 30.0, 0.05),
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


def _katz_case(name, sbm200):
    """(M, beta) for a Katz series case: an observed graph at rate
    beta rho = 1/2 (the slowest the domain allows) and 1/4, the empty
    graph, and an indefinite perturbation of a graph."""
    A = sample_adjacency(sbm200, 21).A.astype(float)
    rho = float(np.max(np.abs(np.linalg.eigvalsh(A))))
    if name == "rate_half":
        return A, 1.0 / (2.0 * rho)
    if name == "rate_quarter":
        return A, 1.0 / (4.0 * rho)
    if name == "empty":
        return np.zeros((200, 200)), 0.1
    E = np.random.default_rng(5).normal(size=(200, 200))
    M = A + (E + E.T) / 2.0
    return M, 1.0 / (2.0 * float(np.max(np.abs(np.linalg.eigvalsh(M)))))


@pytest.mark.parametrize("name", ["rate_half", "rate_quarter", "empty", "indefinite"])
def test_katz_series_matches_dense_solve(sbm200, name):
    M, beta = _katz_case(name, sbm200)
    want = np.linalg.solve(np.eye(M.shape[0]) - beta * M, np.ones(M.shape[0])) - 1.0
    got = katz_centrality(eigendecompose(M), beta)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["rate_quarter", "indefinite"])
def test_katz_refusal_states_radius_and_limit(sbm200, name):
    # four times beta takes rho past the limit 1/(8 beta); the refusal names
    # the spectral radius of the matrix and that limit
    M, beta = _katz_case(name, sbm200)
    with pytest.raises(OutsideDomain) as exc:
        katz_centrality(eigendecompose(M), 4.0 * beta)
    rho = float(np.max(np.abs(np.linalg.eigvalsh(M))))
    assert abs(exc.value.rho - rho) <= 1e-12 * rho
    assert exc.value.limit == 1.0 / (8.0 * beta)


def test_katz_domain_rejection(rng):
    M = np.ones((4, 4)) - np.eye(4)  # rho = 3
    with pytest.raises(OutsideDomain) as exc:
        katz_centrality(eigendecompose(M), beta=1.0)  # limit 0.5 < 3
    assert exc.value.rho > exc.value.limit
    # boundary inclusive: rho = 1/(2 beta) passes
    katz_centrality(eigendecompose(M), beta=1.0 / 6.0)


def _resolvent_oracle(M, beta):
    """The Katz scores sum_{j >= 1} (beta M)^j 1 by one dense float64 solve
    of (I - beta M) x = beta M 1."""
    M = np.asarray(M, dtype=float)
    return np.linalg.solve(np.eye(M.shape[0]) - beta * M, beta * M.sum(axis=1))


def _katz_matrices(n, sbm200):
    """(float P, int8 A) at size n: the worked instance's P and a sample at
    n = 200; a two-node edge of probability .3 and the edge itself at n = 2;
    a one-node graph and a 1 x 1 matrix with a nonzero entry at n = 1."""
    if n == 200:
        return sbm200.P, sample_adjacency(sbm200, 21).A
    if n == 2:
        return np.array([[0.0, 0.3], [0.3, 0.0]]), AdjacencyMatrix(n=2, A=[[0, 1], [1, 0]]).A
    return np.array([[2.0]]), AdjacencyMatrix(n=1, A=[[0]]).A


@pytest.mark.parametrize("rate", [0.5, 0.25])
@pytest.mark.parametrize("kind", ["float_P", "int8_A"])
@pytest.mark.parametrize("n", [1, 2, 200])
def test_katz_resolvent_matches_dense_solve(sbm200, n, kind, rate):
    # rate = beta rho; 1/2 is the edge of the domain. The 1 x 1 graph has
    # rho = 0, so any beta is inside and beta = 1 stands in for it
    M = _katz_matrices(n, sbm200)[kind == "int8_A"]
    rho = float(np.max(np.abs(np.linalg.eigvalsh(np.asarray(M, dtype=float)))))
    beta = rate / rho if rho > 0 else 1.0
    want = _resolvent_oracle(M, beta)
    got = katz_centrality(Spectrum(M), beta)
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)


def _katz_with_isolated(sbm200, nodes):
    """Katz scores at beta rho = 1/2 of the n = 200 sample with the given
    nodes cut off (degree 0)."""
    A = np.array(sample_adjacency(sbm200, 21).A)
    A[nodes, :] = 0
    A[:, nodes] = 0
    S = Spectrum(AdjacencyMatrix(n=200, A=A).A)
    return katz_centrality(S, 1.0 / (2.0 * S.radius))


def test_katz_isolated_node_scores_exactly_zero(sbm200):
    """A node of degree 0 has no walk, so its score is exactly 0, not the
    rounding-level value the tridiagonal solve leaves."""
    scores = _katz_with_isolated(sbm200, [7])
    assert scores[7] == 0.0
    assert np.min(np.delete(scores, 7)) > 0


def test_katz_isolated_nodes_tie_at_the_selection_boundary(sbm200):
    """Two nodes of degree 0 at the top-m boundary tie exactly: the
    selection is set-valued, so no set and no margin is reported."""
    scores = _katz_with_isolated(sbm200, [7, 9])
    sel = top_m_selection(scores, 199)
    assert sel.num_admissible == 2
    assert sel.margin is None
    cert = stability_certificate(scores, m=199, half_width=0.0)
    assert cert.selected_set is None
    assert cert.observed_margin is None
    assert not cert.certified


@pytest.mark.parametrize("value", [math.nan, 0.0, -1.0, math.inf])
def test_katz_centrality_refuses_nan_or_nonpositive_beta(value):
    # NaN is refused as beta, not turned into a domain limit of NaN; an
    # infinite beta would score inf * 0 = NaN on the zero matrix
    with pytest.raises(ValueError, match="beta must be positive"):
        katz_centrality(eigendecompose(np.eye(3)), value)


@pytest.mark.parametrize("value", [math.nan, 0.0, -1.0, 1e308])
def test_katz_modulus_refuses_nan_or_nonpositive_beta(value):
    # 4 * 1e308 overflows: the modulus is refused, not returned as inf
    with pytest.raises(ValueError, match="beta must be positive"):
        katz_modulus(value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: eigenvector_modulus(math.inf),
        lambda: katz_modulus(math.inf),
        lambda: weyl_gap_certificate(math.inf, 1.0),
        lambda: weyl_gap_certificate(1.0, math.inf),
        lambda: davis_kahan_radius(1.0, math.inf),
        lambda: davis_kahan_radius(math.inf, 1.0),
    ],
    ids=["eigenvector_modulus", "katz_modulus", "weyl_gap_hat", "weyl_eps_p",
         "davis_kahan_gap", "davis_kahan_q"],
)
def test_certificate_helpers_refuse_infinity(call):
    # an infinite gap would give a zero-width band (2/gamma = 0), an
    # infinite gap certificate or radius 2q/gap = 0 flagged informative
    with pytest.raises(ValueError, match="finite"):
        call()


@pytest.mark.parametrize("value", [math.nan, 0.0, -1.0, 1e-308, 5e-324])
def test_eigenvector_modulus_refuses_nan_or_nonpositive_gap(value):
    # 2 / 1e-308 and 2 / 5e-324 overflow: the modulus is refused, not inf
    with pytest.raises(ValueError, match="gamma must be positive"):
        eigenvector_modulus(value)
    assert eigenvector_modulus(4.0) == 0.5


def test_katz_modulus_worked_constants():
    beta = 5 / 794
    assert katz_modulus(beta) == 10 / 397
    # beta = 1/(4 rho(P)) puts the model a factor 2 inside the domain
    assert abs(beta * 39.7 - 0.25) < 1e-12


def test_eigenvector_centrality_diagonal():
    S = eigendecompose(np.diag([3.0, 1.0, 1.0]))
    v = eigenvector_centrality(S)
    assert np.allclose(v, [1, 0, 0])
    assert abs(S.gap(1) - 2.0) < 1e-12


def test_eigenvector_centrality_worked_instance(sbm200):
    S = eigendecompose(sbm200.P)
    v, gamma = eigenvector_centrality(S), S.gap(1)
    assert abs(gamma - 20.0) < 1e-9
    assert np.allclose(v, 1 / math.sqrt(200), atol=1e-9)
    assert v.sum() > 0


def test_eigenvector_centrality_rejects_degenerate():
    with pytest.raises(DegenerateTopEigenvalue):
        eigenvector_centrality(eigendecompose(np.eye(3)))


def test_eigenvector_centrality_matches_direct_eigh(sbm200):
    # the top pairs come from subset solves on a tridiagonal reduction, so
    # they match a full eigh within 1e-9 relative, not byte for byte
    A = sample_adjacency(sbm200, 16)
    w, V = np.linalg.eigh(A.A)
    v = V[:, -1] if V[:, -1].sum() >= 0 else -V[:, -1]
    S = eigendecompose(A.A)
    got, gamma = eigenvector_centrality(S), S.gap(1)
    assert np.max(np.abs(got - v)) <= 1e-9 * np.max(np.abs(v))
    assert abs(gamma - float(w[-1] - w[-2])) <= 1e-9 * float(w[-1] - w[-2])


def test_eigenvector_perturbation_modulus(rng):
    # one-dimensional projector perturbation: ||v - v'|| <= 2 ||E|| / gamma
    M = np.diag([5.0, 2.0, 1.0, 0.5])
    S = eigendecompose(M)
    base, gamma = eigenvector_centrality(S), S.gap(1)
    for _ in range(200):
        E = rng.normal(size=(4, 4))
        E = (E + E.T) / 2
        E *= 0.2 / np.linalg.norm(E, 2)
        pert = eigenvector_centrality(eigendecompose(M + E))
        assert np.linalg.norm(pert - base) <= 2 * 0.2 / gamma + 1e-9


def test_katz_perturbation_modulus(rng):
    # ||s(M + E) - s(M)||_2 <= katz_modulus(beta) sqrt(n) ||E|| while M and
    # M + E stay in the Katz domain: rho = 1.3 at most, limit 2.5
    n, beta, scale = 10, 0.2, 0.3
    bound = katz_modulus(beta) * math.sqrt(n) * scale
    for _ in range(3):
        M = rng.normal(size=(n, n))
        M = (M + M.T) / 2
        M /= np.linalg.norm(M, 2)
        base = katz_centrality(eigendecompose(M), beta)
        for _ in range(40):
            E = rng.normal(size=(n, n))
            E = (E + E.T) / 2
            E *= scale / np.linalg.norm(E, 2)
            pert = katz_centrality(eigendecompose(M + E), beta)
            assert np.linalg.norm(pert - base) <= bound


def test_centrality_bands_basic():
    point = np.array([1.0, 2.0, 3.0])
    band = CentralityBand("katz", 0.0 * 5.0, 0.1, point)
    assert band.half_width == 0.0
    assert band.contains(point)
    assert not band.contains(point + 1e-9)

    band = CentralityBand("katz", (10 / 397) * 7.0, 0.1, point)
    assert abs(band.half_width - (10 / 397) * 7.0) < 1e-15
    assert np.allclose(band.upper() - band.lower(), 2 * band.half_width)


@pytest.mark.parametrize(
    "call",
    [
        lambda: CentralityBand("katz", math.nan * 1.0, 0.1, np.zeros(3)),
        lambda: CentralityBand("katz", 1.0 * math.nan, 0.1, np.zeros(3)),
        lambda: CentralityBand("katz", half_width=math.nan, alpha=0.1, point=np.zeros(3)),
        lambda: CentralityBand("katz", math.inf, 0.1, np.zeros(2)),
    ],
    ids=["L", "q", "half_width", "infinite"],
)
def test_centrality_bands_refuse_nan(call):
    # a NaN modulus or deviation bound is refused, not a band of width NaN;
    # an infinite width would give a band that contains every score vector
    with pytest.raises(ValueError, match="nonnegative"):
        call()


@pytest.mark.parametrize("alpha", [0.0, 1.0, 7.0, -0.1, math.nan])
def test_centrality_band_refuses_a_bad_level(alpha):
    # the band states the level of its q; one outside (0, 1) is no level
    with pytest.raises(BadLevel):
        CentralityBand("katz", 1.0, alpha, np.zeros(3))


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_top_m_refuses_non_finite_scores(value):
    # a NaN score has no rank: [nan, 1, 2] read as unique with margin 1
    with pytest.raises(NonFiniteRows, match="NaN or an infinity"):
        top_m_selection(np.array([value, 1.0, 2.0]), 1)
    with pytest.raises(NonFiniteRows):
        stability_certificate(np.array([value, 1.0, 2.0, 0.5]), 1, 0.1)


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


def test_stability_certificate_refuses_nan_half_width():
    with pytest.raises(ValueError, match="half-width must be nonnegative"):
        stability_certificate(np.array([1.0, 0.5, 0.2]), 1, math.nan)


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
    assert cluster_hamming_radius(1e200, 2, 0.3, 40, eta=0.01 * 1e200) == (40, "uniform_rowwise")
    assert rounding_error_bound(1e200, 0.3, 40).hamming_bound == 40

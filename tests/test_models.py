import numpy as np
import pytest

from graphcert import (
    DCSBMSpec,
    OddN,
    OutOfRangeProbability,
    MalformedMembership,
    RDPGSpec,
    SBMSpec,
    build_probability_matrix,
    expected_degree_bound,
    sample_adjacency,
    two_block_sbm,
    two_block_spectrum,
)
from graphcert.errors import NotSymmetric, ShapeMismatch
from graphcert.linalg import eigendecompose, is_symmetric
from graphcert.models import AdjacencyMatrix, ProbabilityModel


def test_sbm_worked_instance_entries(sbm200):
    P = sbm200.P
    assert P.shape == (200, 200)
    assert P[0, 1] == 0.3
    assert P[0, 150] == 0.1
    assert np.all(np.diag(P) == 0)
    labels = sbm200.spec.labels
    same = labels[:, None] == labels[None, :]
    off = ~np.eye(200, dtype=bool)
    assert np.all(P[same & off] == 0.3)
    assert np.all(P[~same] == 0.1)


def test_zero_connectivity_gives_zero_matrix():
    spec = SBMSpec(labels=[0, 0, 1, 1], B=np.zeros((2, 2)))
    model = build_probability_matrix(spec)
    assert np.all(model.P == 0)


def test_rank_one_rdpg_all_ones():
    # every latent position the same unit vector -> all off-diagonal ones
    X = np.tile([0.6, 0.8], (5, 1))
    model = build_probability_matrix(RDPGSpec(X=X))
    off = ~np.eye(5, dtype=bool)
    assert np.allclose(model.P[off], 1.0)
    assert np.all(np.diag(model.P) == 0)


def test_rdpg_out_of_range_rejected_not_clipped():
    X = np.array([[1.2, 0.0], [1.2, 0.0], [0.1, 0.1]])
    with pytest.raises(OutOfRangeProbability) as exc:
        build_probability_matrix(RDPGSpec(X=X))
    assert 0 <= exc.value.i < 3 and 0 <= exc.value.j < 3
    assert exc.value.value > 1


def test_dcsbm_product_out_of_range_rejected():
    spec = DCSBMSpec(
        theta=np.array([2.0, 2.0, 0.5]),
        labels=np.array([0, 0, 1]),
        B=np.array([[0.5, 0.2], [0.2, 0.5]]),
    )
    with pytest.raises(OutOfRangeProbability):
        build_probability_matrix(spec)


def test_nan_probabilities_are_out_of_range():
    # the range checks are written so that NaN fails them
    nan = float("nan")
    with pytest.raises(OutOfRangeProbability) as exc:
        SBMSpec(labels=[0, 1], B=[[0.5, nan], [nan, 0.5]])
    assert (exc.value.i, exc.value.j) == (0, 1)
    with pytest.raises(OutOfRangeProbability) as exc:
        build_probability_matrix(RDPGSpec(X=[[0.5, 0.1], [nan, 0.2], [0.4, 0.3]]))
    assert 1 in (exc.value.i, exc.value.j)
    with pytest.raises(OutOfRangeProbability):
        ProbabilityModel(n=2, P=[[0.0, nan], [nan, 0.0]])


def test_one_symmetry_check_that_nan_fails():
    M = np.array([[0.0, 0.5], [0.5 + 1e-11, 0.0]])
    assert is_symmetric(M) and is_symmetric(M.round(1))
    assert not is_symmetric(M + [[0.0, 0.0], [1e-9, 0.0]])
    nan_diag = np.array([[float("nan"), 0.0], [0.0, 0.5]])
    assert not is_symmetric(nan_diag)
    # each caller keeps its own exception class
    with pytest.raises(NotSymmetric):
        eigendecompose(nan_diag)
    with pytest.raises(ShapeMismatch, match="B must be symmetric"):
        DCSBMSpec(theta=[1.0, 1.0], labels=[0, 1], B=nan_diag)
    with pytest.raises(ShapeMismatch, match="P must be symmetric"):
        ProbabilityModel(n=2, P=M + [[0.0, 0.0], [1e-9, 0.0]])


def test_malformed_membership_rejected():
    # labels are integers in [0, K), refused rather than truncated or cast
    B = np.eye(2) * 0.5
    for labels in ([0, 2], [-1, 0], [0.9, 1.7], [True, False], [0.0, 1.0]):
        with pytest.raises(MalformedMembership, match="labels"):
            SBMSpec(labels=labels, B=B)
        with pytest.raises(MalformedMembership, match="labels"):
            DCSBMSpec(theta=[1.0, 1.0], labels=labels, B=B)


def test_labels_are_stored_as_read_only_integers():
    spec = SBMSpec(labels=np.array([1, 0], dtype=np.int32), B=np.eye(2) * 0.5)
    assert spec.labels.dtype == np.int64 and not spec.labels.flags.writeable
    assert SBMSpec(labels=[], B=np.eye(2) * 0.5).n == 0  # numpy reads [] as float


def test_rdpg_signature_must_be_integers():
    X = [[0.6, 0.2], [0.5, 0.1]]
    assert RDPGSpec(X=X, signature=(np.int64(1), 1)).signature == (1, 1)
    for signature in ([2.9, 0], (1.0, 1.0), (True, True)):
        with pytest.raises(ValueError, match="signature must be an integer"):
            RDPGSpec(X=X, signature=signature)


def test_sampling_trivial_models():
    zero = build_probability_matrix(SBMSpec(labels=[0, 0, 0], B=[[0.0]]))
    for seed in (0, 7, 99):
        assert np.all(sample_adjacency(zero, seed).A == 0)
    ones = build_probability_matrix(SBMSpec(labels=[0, 0, 0, 0], B=[[1.0]]))
    A = sample_adjacency(ones, 3).A
    assert np.all(A[~np.eye(4, dtype=bool)] == 1)


def test_sampling_is_deterministic(sbm200):
    A1 = sample_adjacency(sbm200, 77)
    A2 = sample_adjacency(sbm200, 77)
    assert np.array_equal(A1.A, A2.A)
    A3 = sample_adjacency(sbm200, 78)
    assert not np.array_equal(A1.A, A3.A)


def test_sample_satisfies_adjacency_invariants(sbm200):
    for seed in range(5):
        A = sample_adjacency(sbm200, seed).A
        assert np.array_equal(A, A.T)
        assert np.all(np.diag(A) == 0)
        assert set(np.unique(A)) <= {0, 1}


@pytest.mark.parametrize("bad", [0.5, np.nan, 2, -1])
def test_adjacency_refuses_non_binary_entries_before_the_int8_cast(bad):
    # the checks read the entries as given: the int8 cast would truncate
    # 0.5 to 0 (NaN already fails the exact symmetry check)
    A = np.zeros((3, 3))
    A[0, 1] = A[1, 0] = bad
    with pytest.raises(ShapeMismatch, match="0/1" if bad == bad else "symmetric"):
        AdjacencyMatrix(n=3, A=A)


@pytest.mark.parametrize("dtype", [bool, np.int8, np.int64, float])
def test_adjacency_is_stored_as_read_only_int8(dtype):
    A = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=dtype)
    adj = AdjacencyMatrix(n=3, A=A)
    assert adj.A.dtype == np.int8
    assert not adj.A.flags.writeable
    assert np.array_equal(adj.A, A.astype(np.int8))
    assert sample_adjacency(two_block_sbm(10, 0.3, 0.1), 0).A.dtype == np.int8


def test_empirical_edge_frequency_converges(sbm200):
    R = 400
    acc = np.zeros((200, 200))
    for seed in range(R):
        acc += sample_adjacency(sbm200, seed).A
    freq = acc / R
    P = sbm200.P
    tol = 4.0 * np.sqrt(P * (1 - P) / R)
    # fixed spot checks at the binomial 4-sigma rate
    for i, j in [(0, 1), (0, 101), (50, 150), (99, 100), (3, 8)]:
        assert abs(freq[i, j] - P[i, j]) <= tol[i, j]
    # in aggregate, 4-sigma excursions are rarer than 1 in 1000 pairs
    iu = np.triu_indices(200, k=1)
    frac_out = np.mean(np.abs(freq - P)[iu] > tol[iu])
    assert frac_out < 1e-3


def test_two_block_spectrum_worked_instance():
    lam1, lam2, rest, gap2 = two_block_spectrum(200, 0.3, 0.1)
    assert abs(lam1 - 39.7) < 1e-12
    assert abs(lam2 - 19.7) < 1e-12
    assert rest == -0.3
    assert abs(gap2 - 20.0) < 1e-12


def test_two_block_spectrum_collision_when_q_equals_p():
    lam1, lam2, rest, gap2 = two_block_spectrum(4, 0.5, 0.5)
    assert lam2 == rest == -0.5
    assert gap2 == 0.0


def test_two_block_spectrum_odd_n_rejected():
    with pytest.raises(OddN):
        two_block_spectrum(7, 0.3, 0.1)


@pytest.mark.parametrize("n,p,q", [(10, 0.9, 0.2), (50, 0.5, 0.5), (200, 0.3, 0.1)])
def test_two_block_spectrum_matches_dense_eigendecomposition(n, p, q):
    # oracle: full symmetric eigendecomposition of the built matrix
    model = two_block_sbm(n, p, q)
    w = np.sort(np.linalg.eigvalsh(model.P))[::-1]
    lam1, lam2, rest, gap2 = two_block_spectrum(n, p, q)
    assert abs(w[0] - lam1) < 1e-9
    assert abs(w[1] - lam2) < 1e-9
    assert np.all(np.abs(w[2:] - rest) < 1e-9)
    dense_gap = min(w[0] - w[1], w[1] - w[2])
    assert abs(dense_gap - gap2) < 1e-9


def test_expected_degree_bound_worked_instance(sbm200):
    assert abs(expected_degree_bound(sbm200) - 39.7) < 1e-12


def test_expected_degree_bound_zero_matrix():
    model = build_probability_matrix(SBMSpec(labels=[0, 0], B=[[0.0]]))
    assert expected_degree_bound(model) == 0.0


def test_expected_degree_bound_matches_brute_force(rng):
    n = 30
    P = rng.uniform(0, 1, size=(n, n))
    P = (P + P.T) / 2
    np.fill_diagonal(P, 0.0)
    model = ProbabilityModel(n=n, P=P)
    d = expected_degree_bound(model)
    brute = max(sum(P[i, j] for j in range(n) if j != i) for i in range(n))
    assert abs(d - brute) < 1e-12
    # the bound dominates every row sum
    assert np.all(P.sum(axis=1) <= d + 1e-12)

import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import graphcert
from graphcert import (
    KOutOfRange,
    NotSymmetric,
    OrthonormalBasis,
    ShapeMismatch,
    eigendecompose,
    eigengap,
    eigenvalues,
    frobenius_subspace_bound,
    grassmann_distance,
    procrustes_align,
    sample_adjacency,
    two_block_sbm,
    weyl_gap_certificate,
)
from graphcert.linalg import TOP_BLOCK

from conftest import random_orthogonal, random_orthonormal


def test_top_k_on_diagonal_matrix():
    spectrum = eigendecompose(np.diag([3.0, 2.0, 1.0]))
    basis = spectrum.top_k(1)
    assert np.allclose(np.abs(basis.U[:, 0]), [1, 0, 0])
    assert np.allclose(spectrum.values, [1, 2, 3])
    assert spectrum.gap(1) == 1.0
    assert spectrum.radius == 3.0


def test_top_k_worked_instance(sbm200):
    spectrum = eigendecompose(sbm200.P)
    basis = spectrum.top_k(2)
    n = 200
    ones = np.ones(n) / np.sqrt(n)
    s = np.concatenate([np.ones(100), -np.ones(100)]) / np.sqrt(n)
    # the span contains both population eigenvectors
    proj = basis.projector()
    assert np.allclose(proj @ ones, ones, atol=1e-9)
    assert np.allclose(proj @ s, s, atol=1e-9)
    assert abs(spectrum.gap(2) - 20.0) < 1e-9


def test_top_k_reconstruction_residual(rng):
    # oracle: || M - V diag(w) V^T || small relative to || M ||
    n = 40
    M = rng.normal(size=(n, n))
    M = (M + M.T) / 2
    spectrum = eigendecompose(M)
    recon = (spectrum.vectors * spectrum.values) @ spectrum.vectors.T
    assert np.linalg.norm(M - recon, 2) <= 1e-8 * np.linalg.norm(M, 2)


def test_top_k_rejects_asymmetric_and_bad_k(rng):
    M = rng.normal(size=(5, 5))
    with pytest.raises(NotSymmetric):
        eigendecompose(M)
    S = eigendecompose((M + M.T) / 2)
    with pytest.raises(KOutOfRange):
        S.top_k(5)
    with pytest.raises(KOutOfRange):
        S.top_k(0)


def test_eigendecompose_refuses_asymmetry_beyond_tolerance(rng):
    # consumers read a Spectrum, so an asymmetric matrix is refused once,
    # here, instead of being symmetrized silently by each consumer
    M = rng.normal(size=(6, 6))
    M = (M + M.T) / 2
    near = M.copy()
    near[0, 1] += 1e-11
    eigendecompose(near)
    eigenvalues(near)
    far = M.copy()
    far[0, 1] += 1e-9
    with pytest.raises(NotSymmetric):
        eigendecompose(far)
    with pytest.raises(NotSymmetric):
        eigenvalues(far)


def test_top_k_deterministic_under_ties():
    M = np.diag([2.0, 2.0, 1.0, 0.0])
    b1 = eigendecompose(M).top_k(2)
    b2 = eigendecompose(M).top_k(2)
    assert np.array_equal(b1.U, b2.U)
    # sign rule: the anchor coordinate of each column is positive
    for j in range(2):
        col = b1.U[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def _canonical_all_columns(w_desc, V):
    """The sign/tie rule applied to every column: signs by the largest-magnitude
    coordinate, then each tie group (gaps <= 1e-9 max(1, max|w| over the top
    block)) sorted by anchor index."""
    V = V.copy()
    anchors = []
    for j in range(V.shape[1]):
        a = int(np.argmax(np.abs(V[:, j])))
        if V[a, j] < 0:
            V[:, j] = -V[:, j]
        anchors.append(a)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(w_desc[:TOP_BLOCK]))))
    order, start = [], 0
    for j in range(1, V.shape[1] + 1):
        if j == V.shape[1] or w_desc[j - 1] - w_desc[j] > tol:
            order += sorted(range(start, j), key=lambda c: anchors[c])
            start = j
    return V[:, order]


def _tie_heavy_matrices(rng):
    yield np.eye(6)
    yield np.diag([2.0, 2.0, 2.0, 1.0, 1.0, 0.0])
    yield np.kron(np.ones((3, 3)), np.eye(2))  # eigenvalues 3, 3, 0 x 4
    for _ in range(60):
        n = int(rng.integers(2, 11))
        Q = random_orthogonal(rng, n)
        lam = rng.choice(rng.integers(-3, 4, size=3), size=n).astype(float)
        M = (Q * lam) @ Q.T
        M = (M + M.T) / 2
        yield np.round(M, 1) if rng.random() < 0.3 else M


def test_top_k_bytes_match_full_canonicalization(rng):
    # top_k canonicalizes only through the tie group crossing k; the bytes
    # equal those of the rule applied to all n columns, for every k
    for M in _tie_heavy_matrices(rng):
        S = eigendecompose(M)
        full = _canonical_all_columns(S.values[::-1], S.vectors[:, ::-1])
        for k in range(1, S.n):
            want = OrthonormalBasis(U=full[:, :k]).U
            assert S.top_k(k).U.tobytes() == want.tobytes()


def _cliques(count, size=5):
    """Adjacency of ``count`` disjoint cliques on ``size`` nodes: the top
    eigenvalue size - 1 has multiplicity ``count``, the rest is -1."""
    return np.kron(np.eye(count), np.ones((size, size)) - np.eye(size))


@pytest.mark.parametrize("count,full", [(3, 0), (TOP_BLOCK, 1), (TOP_BLOCK + 2, 1)])
def test_top_k_tie_group_at_block_end_falls_back(eig_calls, count, full):
    # the tie group crossing k = 2 ends inside the block (3 cliques), fills
    # it exactly (8) or runs past it (10); the block cannot tell where the
    # last two end, so they fall back to the full route and give its basis
    M = _cliques(count)
    got = eigendecompose(M).top_k(2)
    assert eig_calls == {"subset": 1, "full": full, "values": 0}
    S = eigendecompose(M)
    assert S.values.size == M.shape[0]  # reads the full route first
    want = S.top_k(2)
    assert grassmann_distance(got, want) <= 1e-12
    if full:
        assert got.U.tobytes() == want.U.tobytes()


def test_radius_of_matrix_with_negative_entries_is_full_radius(rng, eig_calls):
    # the largest eigenvalue is the radius only for a nonnegative matrix;
    # here the most negative eigenvalue is the larger in magnitude
    n = 30
    Q = random_orthogonal(rng, n)
    M = (Q * np.linspace(-9.0, 2.0, n)) @ Q.T
    M = (M + M.T) / 2
    w = np.linalg.eigvalsh(M)
    assert M.min() < 0 and -w[0] > w[-1]
    assert abs(eigendecompose(M).radius - (-w[0])) <= 1e-12 * -w[0]
    assert eig_calls == {"subset": 0, "full": 1, "values": 0}


@pytest.mark.parametrize("n,subset,full", [(2, 0, 1), (TOP_BLOCK, 0, 1), (TOP_BLOCK + 1, 1, 0)])
def test_small_matrices_take_the_full_route(eig_calls, n, subset, full):
    M = np.ones((n, n)) - np.eye(n)
    M[0, 1] = M[1, 0] = 2.0
    S = eigendecompose(M)
    assert S.gap(1) > 0 and S.top_k(1).k == 1 and S.radius > 0
    assert eig_calls == {"subset": subset, "full": full, "values": 0}


def test_block_reads_agree_in_any_order():
    # the block is fixed, not sized by the first read, so every order of
    # reads gives the same bytes
    A = sample_adjacency(two_block_sbm(60, 0.5, 0.1), 4).A
    reads = {
        "gap1": lambda S: S.gap(1),
        "gap2": lambda S: S.gap(2),
        "gap7": lambda S: S.gap(TOP_BLOCK - 1),
        "radius": lambda S: S.radius,
        "top1": lambda S: S.top_k(1).U.tobytes(),
        "top3": lambda S: S.top_k(3).U.tobytes(),
    }
    first = None
    for order in itertools.permutations(reads):
        S = eigendecompose(A)
        got = {name: reads[name](S) for name in order}
        first = first or got
        assert got == first


def test_package_makes_no_numpy_eigensolve_or_solve():
    # numpy and scipy each load their own BLAS; every eigensolve goes through
    # scipy.linalg.eigh, so eigensolves never alternate between the two, and
    # Katz scores need no dense solve
    pattern = re.compile(r"\b(?:np|numpy)\.linalg\.(?:eigh|eigvalsh|solve)\s*\(|\beigvalsh\s*\(")
    hits = [
        f"{path.name}:{i}"
        for path in sorted(Path(graphcert.__file__).parent.glob("*.py"))
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []


def test_grassmann_trivial_cases():
    e1 = OrthonormalBasis(U=np.array([[1.0], [0.0]]))
    e2 = OrthonormalBasis(U=np.array([[0.0], [1.0]]))
    assert grassmann_distance(e1, e1) == 0.0
    assert abs(grassmann_distance(e1, e2) - 1.0) < 1e-12


def test_grassmann_rotation_invariance(rng):
    for _ in range(20):
        U = OrthonormalBasis(U=random_orthonormal(rng, 15, 3))
        V = OrthonormalBasis(U=random_orthonormal(rng, 15, 3))
        Q = random_orthogonal(rng, 3)
        R = random_orthogonal(rng, 3)
        base = grassmann_distance(U, V)
        rotated = grassmann_distance(
            OrthonormalBasis(U=U.U @ Q), OrthonormalBasis(U=V.U @ R)
        )
        assert abs(base - rotated) < 1e-10


def test_grassmann_symmetry_and_triangle(rng):
    for _ in range(30):
        A, B, C = (OrthonormalBasis(U=random_orthonormal(rng, 12, 2)) for _ in range(3))
        dab = grassmann_distance(A, B)
        assert abs(dab - grassmann_distance(B, A)) < 1e-12
        assert dab <= grassmann_distance(A, C) + grassmann_distance(C, B) + 1e-9


def _projector_distance(U, V):
    """Oracle: largest absolute eigenvalue of the n x n projector difference."""
    w = np.linalg.eigvalsh(U.projector() - V.projector())
    return min(max(abs(w[0]), abs(w[-1])), 1.0)


@pytest.mark.parametrize("angle", [0.0, 1e-9, 1e-4, 0.7, math.pi / 2])
def test_grassmann_matches_projector_oracle(rng, angle):
    n, k = 40, 3
    Q = random_orthonormal(rng, n, 2 * k)
    U = OrthonormalBasis(U=Q[:, :k])
    rotated = Q[:, :k].copy()
    rotated[:, 0] = math.cos(angle) * Q[:, 0] + math.sin(angle) * Q[:, k]
    V = OrthonormalBasis(U=rotated)
    assert abs(grassmann_distance(U, V) - _projector_distance(U, V)) < 1e-12
    assert abs(grassmann_distance(U, V) - math.sin(angle)) < 1e-12
    orthogonal = OrthonormalBasis(U=Q[:, k:])
    assert abs(grassmann_distance(U, orthogonal) - 1.0) < 1e-12
    for _ in range(10):
        W = OrthonormalBasis(U=random_orthonormal(rng, n, k))
        assert abs(grassmann_distance(U, W) - _projector_distance(U, W)) < 1e-12


def test_grassmann_shape_mismatch():
    U = OrthonormalBasis(U=np.eye(3)[:, :1])
    V = OrthonormalBasis(U=np.eye(4)[:, :1])
    with pytest.raises(ShapeMismatch):
        grassmann_distance(U, V)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_orthonormal_basis_refuses_non_finite_columns(value):
    with pytest.raises(ShapeMismatch, match="not orthonormal"):
        OrthonormalBasis(U=np.full((5, 2), value))
    U = np.eye(5)[:, :2]
    U[3, 1] = value
    with pytest.raises(ShapeMismatch, match="not orthonormal"):
        OrthonormalBasis(U=U)


def test_procrustes_identity_and_exact_alignability(rng):
    U = OrthonormalBasis(U=random_orthonormal(rng, 10, 3))
    Q0, aligned = procrustes_align(U, U)
    assert np.allclose(Q0, np.eye(3), atol=1e-10)
    assert np.linalg.norm(aligned.U - U.U) < 1e-10

    Q = random_orthogonal(rng, 3)
    rotated = OrthonormalBasis(U=U.U @ Q)
    _, aligned = procrustes_align(rotated, U)
    assert np.linalg.norm(aligned.U - U.U) < 1e-10


def test_procrustes_beats_random_search(rng):
    # oracle: the optimum is no worse than 1000 random orthogonal guesses
    U = OrthonormalBasis(U=random_orthonormal(rng, 12, 3))
    V = OrthonormalBasis(U=random_orthonormal(rng, 12, 3))
    _, aligned = procrustes_align(U, V)
    best = np.linalg.norm(aligned.U - V.U)
    for _ in range(1000):
        Q = random_orthogonal(rng, 3)
        best_rand = np.linalg.norm(U.U @ Q - V.U)
        assert best <= best_rand + 1e-10


@given(
    gap=st.floats(0, 100, allow_nan=False),
    eps=st.floats(0, 100, allow_nan=False),
)
def test_weyl_certificate_formula(gap, eps):
    out = weyl_gap_certificate(gap, eps)
    assert out == max(gap - 2 * eps, 0.0)


def test_weyl_certificate_examples():
    assert weyl_gap_certificate(5, 1) == 3
    assert weyl_gap_certificate(1, 1) == 0
    assert weyl_gap_certificate(20, 0) == 20


def test_weyl_eigenvalue_transfer(rng):
    # |lam_j(M+E) - lam_j(M)| <= ||E|| for every j
    for _ in range(20):
        n = 12
        M = rng.normal(size=(n, n))
        M = (M + M.T) / 2
        E = rng.normal(size=(n, n))
        E = (E + E.T) / 2
        eps = np.linalg.norm(E, 2)
        wm = np.linalg.eigvalsh(M)
        wp = np.linalg.eigvalsh(M + E)
        assert np.all(np.abs(wp - wm) <= eps + 1e-10)


def test_frobenius_bound_values():
    assert frobenius_subspace_bound(0.5, 2) == 4 * 0.25
    assert frobenius_subspace_bound(0.0, 7) == 0.0
    assert frobenius_subspace_bound(1.0, 3) == 6.0


def test_frobenius_bound_dominates_procrustes(rng):
    # oracle: min_Q ||U Q - V||_F^2 over the true optimum, random rank-k pairs
    for _ in range(50):
        k = int(rng.integers(1, 4))
        U = OrthonormalBasis(U=random_orthonormal(rng, 10, k))
        V = OrthonormalBasis(U=random_orthonormal(rng, 10, k))
        _, aligned = procrustes_align(U, V)
        f2 = np.linalg.norm(aligned.U - V.U) ** 2
        d = grassmann_distance(U, V)
        assert f2 <= frobenius_subspace_bound(d, k) + 1e-9


def test_eigengap_conventions():
    w = np.array([5.0, 3.0, 2.5, 1.0])
    assert eigengap(w, 1) == 2.0  # lam_0 = +inf convention
    assert eigengap(w, 2) == 0.5
    assert eigengap(w, 3) == min(2.5 - 1.0, 3.0 - 2.5)


def test_top_k_idempotent_on_symmetric_input(rng):
    M = rng.normal(size=(8, 8))
    M = (M + M.T) / 2
    s1 = eigendecompose(M)
    s2 = eigendecompose((M + M.T) / 2)
    assert np.array_equal(s1.top_k(2).U, s2.top_k(2).U)
    assert np.array_equal(s1.values, s2.values)

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphcert import (
    KOutOfRange,
    NotSymmetric,
    OrthonormalBasis,
    ShapeMismatch,
    eigengap,
    frobenius_subspace_bound,
    grassmann_distance,
    procrustes_align,
    top_k_eigens,
    weyl_gap_certificate,
)

from conftest import random_orthogonal, random_orthonormal


def test_top_k_on_diagonal_matrix():
    basis, spectrum = top_k_eigens(np.diag([3.0, 2.0, 1.0]), 1)
    assert np.allclose(np.abs(basis.U[:, 0]), [1, 0, 0])
    assert np.allclose(spectrum.eigenvalues, [3, 2, 1])
    assert spectrum.gap_k == 1.0


def test_top_k_worked_instance(sbm200):
    basis, spectrum = top_k_eigens(sbm200.P, 2)
    n = 200
    ones = np.ones(n) / np.sqrt(n)
    s = np.concatenate([np.ones(100), -np.ones(100)]) / np.sqrt(n)
    # the span contains both population eigenvectors
    proj = basis.projector()
    assert np.allclose(proj @ ones, ones, atol=1e-9)
    assert np.allclose(proj @ s, s, atol=1e-9)
    assert abs(spectrum.gap_k - 20.0) < 1e-9


def test_top_k_reconstruction_residual(rng):
    # oracle: || M - V diag(w) V^T || small relative to || M ||
    n = 40
    M = rng.normal(size=(n, n))
    M = (M + M.T) / 2
    _, spectrum = top_k_eigens(M, 3)
    w, V = np.linalg.eigh(M)
    recon = (V * w) @ V.T
    assert np.linalg.norm(M - recon, 2) <= 1e-8 * np.linalg.norm(M, 2)


def test_top_k_rejects_asymmetric_and_bad_k(rng):
    M = rng.normal(size=(5, 5))
    with pytest.raises(NotSymmetric):
        top_k_eigens(M, 2)
    S = (M + M.T) / 2
    with pytest.raises(KOutOfRange):
        top_k_eigens(S, 5)
    with pytest.raises(KOutOfRange):
        top_k_eigens(S, 0)


def test_top_k_deterministic_under_ties():
    M = np.diag([2.0, 2.0, 1.0, 0.0])
    b1, _ = top_k_eigens(M, 2)
    b2, _ = top_k_eigens(M, 2)
    assert np.array_equal(b1.U, b2.U)
    # sign rule: the anchor coordinate of each column is positive
    for j in range(2):
        col = b1.U[:, j]
        assert col[np.argmax(np.abs(col))] > 0


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
    b1, s1 = top_k_eigens(M, 2)
    b2, s2 = top_k_eigens((M + M.T) / 2, 2)
    assert np.array_equal(b1.U, b2.U)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)

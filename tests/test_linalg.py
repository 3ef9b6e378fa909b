import ast
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

import graphcert
from graphcert import (
    KOutOfRange,
    NotSymmetric,
    OrthonormalBasis,
    ShapeMismatch,
    eigendecompose,
    eigengap,
    frobenius_subspace_bound,
    grassmann_distance,
    procrustes_align,
    sample_adjacency,
    symmetric_operator_norm,
    two_block_sbm,
    weyl_gap_certificate,
)
from graphcert import linalg
from graphcert.linalg import TOP_BLOCK

from conftest import random_orthogonal, random_orthonormal


def test_top_k_on_diagonal_matrix():
    spectrum = eigendecompose(np.diag([3.0, 2.0, 1.0]))
    basis = spectrum.top_k(1)
    assert np.allclose(np.abs(basis.U[:, 0]), [1, 0, 0])
    assert np.allclose(scipy.linalg.eigvalsh(spectrum.matrix), [1, 2, 3])
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
    w, V = spectrum.top(n)
    recon = (V * w) @ V.T
    assert np.linalg.norm(M - recon, 2) <= 1e-8 * np.linalg.norm(M, 2)
    assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-12
    assert np.max(np.abs(w[::-1] - scipy.linalg.eigvalsh(M))) <= 1e-12 * np.abs(w).max()


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
    symmetric_operator_norm(near)
    far = M.copy()
    far[0, 1] += 1e-9
    with pytest.raises(NotSymmetric):
        eigendecompose(far)
    with pytest.raises(NotSymmetric):
        symmetric_operator_norm(far)


# input -> the top eigenvalue of the accepted matrix, or the exception class
# raised. Symmetry is tested on the input's own dtype; the int8 case wraps
# 127 - (-1) to -128 unless M - M.T is formed in float64
_EIGENDECOMPOSE_OUTCOMES = {
    "int8-exact": (np.array([[0, 1], [1, 0]], dtype=np.int8), 1.0),
    "int8-minus128-asymmetric": (np.array([[0, 127], [-1, 0]], dtype=np.int8), NotSymmetric),
    "bool-asymmetric": (np.array([[False, True], [False, False]]), NotSymmetric),
    "float-within-1e-10": (np.array([[0.0, 0.5], [0.5 + 1e-11, 0.0]]), 0.5 + 1e-11),
    "float32": (np.array([[0.0, 0.5], [0.5, 0.0]], dtype=np.float32), 0.5),
    "nan": (np.array([[np.nan, 0.0], [0.0, 1.0]]), NotSymmetric),
    "nested-list": ([[2, 1], [1, 2]], 3.0),
    "ragged": ([[1.0, 2.0], [3.0]], ValueError),
    "3-d": (np.zeros((2, 2, 2)), NotSymmetric),
    # Hermitian, top eigenvalue 3: its real part alone would read 1
    "complex": (np.array([[1, 2j], [-2j, 1]]), NotSymmetric),
}


@pytest.mark.parametrize(
    "M,expected", _EIGENDECOMPOSE_OUTCOMES.values(), ids=_EIGENDECOMPOSE_OUTCOMES.keys()
)
def test_eigendecompose_outcome_by_input_kind(M, expected):
    if isinstance(expected, float):
        S = eigendecompose(M)
        dtype = np.asarray(M).dtype
        assert S.matrix.dtype == (dtype if dtype.kind in "biu" else np.float64)
        assert abs(S.top(1)[0][0] - expected) <= 1e-12
    else:
        with pytest.raises(expected) as exc:
            eigendecompose(M)
        assert type(exc.value) is expected


def test_top_k_deterministic_under_ties():
    M = np.diag([2.0, 2.0, 1.0, 0.0])
    b1 = eigendecompose(M).top_k(2)
    b2 = eigendecompose(M).top_k(2)
    assert np.array_equal(b1.U, b2.U)
    # sign rule: the anchor coordinate of each column is positive
    for j in range(2):
        col = b1.U[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def _canonical_all_columns(w_desc, V, tol=None):
    """The sign/tie rule applied to every column, one column at a time: signs
    by the largest-magnitude coordinate, then each tie group (gaps <= tol,
    by default 1e-9 max(1, max|w| over the TOP_BLOCK largest)) sorted by
    anchor index."""
    V = V.copy()
    anchors = []
    for j in range(V.shape[1]):
        a = int(np.argmax(np.abs(V[:, j])))
        if V[a, j] < 0:
            V[:, j] = -V[:, j]
        anchors.append(a)
    if tol is None:
        tol = 1e-9 * max(1.0, float(np.max(np.abs(w_desc[:TOP_BLOCK]))))
    order, start = [], 0
    for j in range(1, V.shape[1] + 1):
        if j == V.shape[1] or w_desc[j - 1] - w_desc[j] > tol:
            order += sorted(range(start, j), key=lambda c: anchors[c])
            start = j
    return V[:, order]


def test_canonical_columns_match_the_column_loop_bitwise(rng):
    # the one-pass rule against the loop: values and sign bits, with negative
    # zeros, magnitude ties between coordinates, and exact and near ties of
    # eigenvalues inside and outside the tolerance
    entries = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
    levels = np.array([3.0, 2.0, 1.0 + 1e-9, 1.0, 1e-10, 0.0, -1.0])
    for _ in range(3000):
        n, m = int(rng.integers(1, 8)), int(rng.integers(2, 10))
        V = rng.choice(entries, size=(n, m)) if rng.random() < 0.5 else rng.normal(size=(n, m))
        w = np.sort(rng.choice(levels, size=m))[::-1]
        tol = float(rng.choice([0.0, 1e-9, 2e-9, 1.5]))
        k = int(rng.integers(1, m + 1))
        got = linalg._canonical_columns(w, V, k, tol)
        assert got.tobytes() == _canonical_all_columns(w, V, tol)[:, :k].tobytes()


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
    # equal those of the rule applied to every column of the read it makes,
    # for every k: the max(k + 1, TOP_BLOCK) largest pairs, or all n (these
    # matrices have n <= 10) when the tie group crossing k runs to its end
    for M in _tie_heavy_matrices(rng):
        S = eigendecompose(M)
        for k in range(1, S.n):
            read = S.top(min(S.n, max(k + 1, TOP_BLOCK)))
            tol = linalg._tie_tol(read[0])
            if linalg._tie_end(read[0], k, tol) == read[0].size:
                read = S.top(S.n)
            full = _canonical_all_columns(*read)
            want = OrthonormalBasis(U=full[:, :k]).U
            assert S.top_k(k).U.tobytes() == want.tobytes()


def _cliques(count, size=5):
    """Adjacency of ``count`` disjoint cliques on ``size`` nodes: the top
    eigenvalue size - 1 has multiplicity ``count``, the rest is -1."""
    return np.kron(np.eye(count), np.ones((size, size)) - np.eye(size))


@pytest.mark.parametrize("count,reduction", [(3, 1), (TOP_BLOCK, 1), (TOP_BLOCK + 2, 1)])
def test_top_k_tie_group_at_block_end_falls_back(eig_calls, count, reduction):
    # the tie group crossing k = 2 ends inside the first TOP_BLOCK pairs read
    # (3 cliques), fills them exactly (8) or runs past them (10); the last two
    # read on from the same reduction until the group ends, and give the
    # basis of a spectrum whose reduction served another read first
    M = _cliques(count)
    got = eigendecompose(M).top_k(2)
    assert eig_calls == {"subset": 0, "full": 0, "values": 0, "reduction": reduction}
    S = eigendecompose(M)
    assert S.beyond(0)[0].size == M.shape[0]  # makes the reduction first
    want = S.top_k(2)
    assert grassmann_distance(got, want) <= 1e-12
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
    assert eig_calls == {"subset": 0, "full": 0, "values": 0, "reduction": 1}


@st.composite
def _norm_inputs(draw):
    """A symmetric matrix of order 1 to 12: Gaussian, scaled by 1e-3 to 1e3
    and sometimes shifted below its Gershgorin bound so that every
    eigenvalue is negative; the zero matrix; or an int8 0/1 graph."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["gaussian", "negative", "zero", "graph"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "zero":
        return np.zeros((n, n), dtype=np.int8)
    if kind == "graph":
        A = np.triu(rng.integers(0, 2, size=(n, n), dtype=np.int8), 1)
        return A + A.T
    M = rng.normal(size=(n, n))
    M = (M + M.T) / 2
    if kind == "negative":
        M -= (np.abs(M).sum(axis=1).max() + 1.0) * np.eye(n)
    return 10.0 ** draw(st.floats(-3, 3)) * M


@given(M=_norm_inputs())
def test_symmetric_operator_norm_is_the_largest_absolute_eigenvalue(M):
    # the radius read of the matrix's own reduction, against a values-only
    # whole-matrix solve; an int8 graph and its float64 copy agree bit for bit
    got = symmetric_operator_norm(M)
    want = float(np.abs(scipy.linalg.eigvalsh(np.asarray(M, dtype=float))).max())
    assert abs(got - want) <= 1e-12 * want
    if M.dtype == np.int8:
        float_norm = symmetric_operator_norm(M.astype(float))
        assert np.float64(got).tobytes() == np.float64(float_norm).tobytes()


@given(n=st.integers(1, 12), bad=st.sampled_from([math.nan, math.inf, -math.inf, 1e-9]),
       seed=st.integers(0, 2**32 - 1))
def test_symmetric_operator_norm_refuses_non_finite_or_asymmetric_input(n, bad, seed):
    # NaN breaks symmetry (NaN != NaN) and an infinity reaches the
    # tridiagonal solve's finiteness check; 1e-9 added on one side of the
    # diagonal is asymmetry beyond the 1e-10 tolerance
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    M = (M + M.T) / 2
    i, j = rng.integers(0, n, size=2)
    if bad == 1e-9:
        assume(n > 1)
        M[0, n - 1] += bad
    else:
        M[i, j] = M[j, i] = bad
    expected = ValueError if math.isinf(bad) else NotSymmetric
    with pytest.raises(expected) as exc:
        symmetric_operator_norm(M)
    assert isinstance(exc.value, NotSymmetric) == (expected is NotSymmetric)


@pytest.mark.parametrize("n,subset,reduction",
                         [(2, 0, 1), (TOP_BLOCK, 0, 1), (TOP_BLOCK + 1, 0, 1)])
def test_small_matrices_take_the_full_route(eig_calls, n, subset, reduction):
    M = np.ones((n, n)) - np.eye(n)
    M[0, 1] = M[1, 0] = 2.0
    S = eigendecompose(M)
    assert S.gap(1) > 0 and S.top_k(1).k == 1 and S.radius > 0
    assert eig_calls == {"subset": subset, "full": 0, "values": 0, "reduction": reduction}


def _evr_top(M):
    """The TOP_BLOCK largest pairs, descending, from one MRRR subset solve of
    the whole matrix (LAPACK's ``dsyevr``), an oracle that reads no
    state of the spectrum under test."""
    n = M.shape[0]
    m = min(n, TOP_BLOCK)
    # in float64: scipy solves an int8 matrix in float32
    M = np.asarray(M, dtype=float)
    w, V = scipy.linalg.eigh(M, subset_by_index=[n - m, n - 1], driver="evr")
    return w[::-1], V[:, ::-1]


def _sbm_samples():
    for n in (200, 600):
        for seed in range(2):
            yield sample_adjacency(two_block_sbm(n, 0.3, 0.1), seed).A


def test_top_pairs_match_a_whole_matrix_subset_solve(rng):
    # the top values agree with the MRRR subset solve within 1e-12 of the
    # spectral scale, and every top-k basis whose k-gap is not a tie spans
    # the same space within 1e-12
    for M in itertools.chain(_sbm_samples(), _tie_heavy_matrices(rng)):
        w_evr, V_evr = _evr_top(M)
        S = eigendecompose(M)
        w, _ = S.top(w_evr.size)
        scale = max(1.0, float(np.max(np.abs(w_evr))))
        assert np.max(np.abs(w - w_evr)) <= 1e-12 * scale
        for k in range(1, min(w_evr.size, S.n - 1)):
            if w_evr[k - 1] - w_evr[k] > 1e-9 * scale:
                want = OrthonormalBasis(U=V_evr[:, :k])
                assert grassmann_distance(S.top_k(k), want) <= 1e-12


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 0), (9, 3), (200, 1), (600, 2)])
def test_int8_matrix_gives_the_float64_spectrum_bit_for_bit(n, seed):
    """dsytrd casts the int8 AdjacencyMatrix.A into the float64 work array it
    copies into anyway, so every read equals that of the float64 copy."""
    if n <= 2:
        A = np.ones((n, n), dtype=np.int8) - np.eye(n, dtype=np.int8)
    else:
        A = sample_adjacency(two_block_sbm(n + n % 2, 0.3, 0.1), seed).A[:n, :n]
    assert A.dtype == np.int8
    S8, S64 = linalg.Spectrum(A), linalg.Spectrum(A.astype(float))
    m = min(n, TOP_BLOCK + 2)
    for a, b in zip(S8.top(m), S64.top(m)):
        assert np.array_equal(a, b)
    for a, b in zip(S8.beyond(1.0), S64.beyond(1.0)):
        assert np.array_equal(a, b)
    assert S8.radius == S64.radius
    if n > 1:
        assert S8.gap(1) == S64.gap(1)
        assert np.array_equal(S8.top_k(1).U, S64.top_k(1).U)
    b = np.arange(n, dtype=float)
    beta = 0.5 / max(S64.radius, 1.0)
    assert np.array_equal(S8.resolvent(beta, b), S64.resolvent(beta, b))


@pytest.mark.parametrize("dtype", [np.int8, bool, np.uint8, np.int64])
@pytest.mark.parametrize("n,seed", [(1, 0), (2, 0), (9, 3), (200, 1)])
def test_eigendecompose_keeps_an_integer_matrix_in_its_dtype(n, seed, dtype):
    """A bool or integer matrix is kept as a read-only copy in its own dtype,
    and its spectrum equals that of the float64 copy bit for bit."""
    if n <= 2:
        A = np.ones((n, n), dtype=np.int8) - np.eye(n, dtype=np.int8)
    else:
        A = sample_adjacency(two_block_sbm(n + n % 2, 0.3, 0.1), seed).A[:n, :n]
    A = A.astype(dtype)
    S, S64 = eigendecompose(A), eigendecompose(A.astype(float))
    assert S.matrix.dtype == A.dtype and not S.matrix.flags.writeable
    assert not np.shares_memory(S.matrix, A)
    m = min(n, TOP_BLOCK + 2)
    for a, b in zip(S.top(m), S64.top(m)):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(S.beyond(1.0), S64.beyond(1.0)):
        assert a.tobytes() == b.tobytes()
    assert S.radius == S64.radius
    b = np.arange(n, dtype=float)
    beta = 0.5 / max(S64.radius, 1.0)
    assert S.resolvent(beta, b).tobytes() == S64.resolvent(beta, b).tobytes()


def test_eigendecompose_of_an_int8_graph_makes_no_float64_copy():
    # the int8 copy is n^2 bytes; a float64 copy would trace n^2 * 8
    n = 400
    A = sample_adjacency(two_block_sbm(n, 0.3, 0.1), 0).A
    tracemalloc.start()
    try:
        S = eigendecompose(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S.matrix.dtype == np.int8
    assert peak < n * n * 8 / 2


@pytest.mark.parametrize("diagonal", [[2.0], [3.0, 1.0], [0.5, 3.0, 0.2]])
def test_resolvent_refuses_an_indefinite_shift(diagonal):
    # beta = 1 puts an eigenvalue 1 - beta lambda of I - beta M below 0:
    # dptsv reports a nonpositive pivot and nothing is returned
    S = linalg.Spectrum(np.diag(diagonal))
    with pytest.raises(np.linalg.LinAlgError, match="dptsv"):
        S.resolvent(1.0, np.ones(len(diagonal)))
    x = S.resolvent(0.25, np.ones(len(diagonal)))
    assert np.allclose(x, 1.0 / (1.0 - 0.25 * np.array(diagonal)), rtol=1e-14, atol=0)


def _copying_back_transform(M, **select):
    """Eigenpairs of the tridiagonal reduction of M in a selection, mapped
    back through a contiguous copy of the reflectors c[1:, :n-1]."""
    n = M.shape[0]
    lwork, _ = scipy.linalg.lapack.dsytrd_lwork(n, lower=1)
    c, d, e, tau, _ = scipy.linalg.lapack.dsytrd(M, lower=1, lwork=int(lwork))
    w, Z = scipy.linalg.eigh_tridiagonal(d, e, **select)
    if w.size:
        reflectors = np.asfortranarray(c[1:, : n - 1])
        work = scipy.linalg.lapack.dormqr("L", "N", reflectors, tau, Z[1:], -1)[1]
        Z[1:] = scipy.linalg.lapack.dormqr("L", "N", reflectors, tau, Z[1:], int(work[0]))[0]
    return w, Z


@pytest.mark.parametrize("n", range(2, 14))
def test_reflectors_read_in_place_match_a_copy_bitwise(rng, n):
    # the spectrum hands dormqr a view that starts one element into the
    # reduction's array; an index slip there would change the vectors
    M = rng.normal(size=(n, n))
    M = (M + M.T) / 2
    thr = float(np.median(np.abs(np.linalg.eigvalsh(M))))
    w, V = eigendecompose(M).top(n)
    want_w, want_V = _copying_back_transform(M, select="i", select_range=(0, n - 1))
    assert w.tobytes() == want_w[::-1].tobytes()
    assert V.tobytes() == np.ascontiguousarray(want_V[:, ::-1]).tobytes()
    for r in [(-np.inf, -thr), (np.nextafter(thr, -np.inf), np.inf)]:
        w, V = eigendecompose(M)._reduced_pairs(select="v", select_range=r)
        want_w, want_V = _copying_back_transform(M, select="v", select_range=r)
        assert w.tobytes() == want_w.tobytes()
        assert V.tobytes() == want_V.tobytes()


def test_top_read_makes_no_copy_of_the_reflectors(rng):
    # after the reduction, reading the top pairs allocates O(n) per pair
    # and dormqr's workspace; a copy of the (n-1) x (n-1) reflectors would
    # trace about n^2 * 8 bytes
    n = 400
    M = rng.normal(size=(n, n))
    S = eigendecompose((M + M.T) / 2)
    assert S.radius > 0  # a matrix with negative entries: the reduction alone
    tracemalloc.start()
    try:
        S.top(TOP_BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4


def test_beyond_keeps_exactly_the_pairs_at_or_past_the_threshold(rng):
    # a diagonal matrix reduces to itself, so its eigenvalues are exact and
    # the ones equal to +-thr sit on the range ends: both are kept
    lam = np.array([3.0, -2.0, 2.0, 1.0, -1.0, 0.5, np.nextafter(2.0, 0.0), -2.5, 0.0, 1.5])
    S = eigendecompose(np.diag(lam))
    w, V = S.beyond(2.0)
    assert w.tolist() == [-2.5, -2.0, 2.0, 3.0]
    assert np.array_equal(np.abs(V), np.eye(lam.size)[:, [7, 1, 2, 0]])
    assert S.beyond(2.5)[0].tolist() == [-2.5, 3.0]  # lambda_min = -thr is kept
    assert S.beyond(0.0)[0].tolist() == sorted(lam.tolist())  # thr = 0 keeps every pair
    assert S.beyond(np.inf)[0].size == 0
    # a dense matrix: the kept pairs are those of a full solve, vectors up
    # to sign
    n = 40
    Q = random_orthogonal(rng, n)
    M = (Q * np.linspace(-9.0, 7.0, n)) @ Q.T
    M = (M + M.T) / 2
    w_all, V_all = np.linalg.eigh(M)
    keep = np.abs(w_all) >= 4.0
    w, V = eigendecompose(M).beyond(4.0)
    assert np.max(np.abs(w - w_all[keep])) <= 1e-12
    assert np.max(np.abs(np.abs(V.T @ V_all[:, keep]) - np.eye(keep.sum()))) <= 1e-10


@pytest.mark.parametrize("case,reads", [
    # lambda_8 < thr < -lambda_min: one read of lambda_min, no value range
    ("assortative", [("i", True)]),
    # lambda_min <= -thr: the negative side is a value-range read
    ("disassortative", [("i", True), ("v", False)]),
    # lambda_8 >= thr: the top read doubles once; inside the bulk, lambda_min
    # is below -thr too
    ("doubling", [("i", False), ("i", True), ("v", False)]),
])
def test_beyond_serves_its_positive_side_from_the_top_read(eig_calls, case, reads):
    n, p_in, p_out, thr = {
        "assortative": (600, 0.3, 0.1, 22.0),
        "disassortative": (200, 0.05, 0.5, 15.0),
        "doubling": (200, 0.3, 0.1, None),
    }[case]
    A = sample_adjacency(two_block_sbm(n, p_in, p_out), 1).A
    w_all, V_all = np.linalg.eigh(A.astype(float))
    if thr is None:  # between lambda_10 and lambda_11
        thr = float(w_all[-11] + w_all[-10]) / 2.0
    S = eigendecompose(A)
    S.top(TOP_BLOCK)  # the first read, as the protocol makes it
    eig_calls.tridiagonal.clear()
    w, V = S.beyond(thr)
    assert eig_calls.tridiagonal == reads
    keep = np.abs(w_all) >= thr
    assert np.max(np.abs(w - w_all[keep])) <= 1e-10
    assert np.max(np.abs(np.abs(V.T @ V_all[:, keep]) - np.eye(keep.sum()))) <= 1e-8
    assert not (w.flags.writeable or V.flags.writeable)


def test_block_reads_agree_in_any_order():
    # the smallest read of the largest pairs is fixed, not sized by the
    # first read, so every order of reads gives the same bytes
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
    # scipy's LAPACK, so eigensolves never alternate between the two, and
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
    # no columns: numpy's bare "zero-size array to reduction" error before
    for shape in ((5, 0), (0, 0)):
        with pytest.raises(ShapeMismatch, match="with a column"):
            OrthonormalBasis(U=np.zeros(shape))


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


@pytest.mark.parametrize("args", [(math.nan, 1.0), (1.0, math.nan), (-1.0, 1.0), (1.0, -1.0)])
def test_weyl_certificate_refuses_nan_or_negative(args):
    with pytest.raises(ValueError, match="must be nonnegative"):
        weyl_gap_certificate(*args)


@pytest.mark.parametrize("r", [math.nan, -0.5])
def test_frobenius_bound_refuses_nan_or_negative_radius(r):
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        frobenius_subspace_bound(r, 2)


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


def test_spectrum_gap_within_tie_tolerance_is_zero():
    # the tolerance top_k uses to tie eigenvalues, 1e-9 max(1, max |lambda|)
    # = 2e-9 here, also reads a computed gap as rounding noise
    assert eigendecompose(np.diag([2.0, 1.0 + 1e-12, 1.0])).gap(2) == 0.0
    assert eigendecompose(np.diag([2.0, 1.0 + 1.5e-9, 1.0])).gap(2) == 0.0
    assert eigendecompose(np.diag([2.0, 1.0 + 1e-6, 1.0])).gap(2) == pytest.approx(1e-6)
    # the same rule past the first TOP_BLOCK pairs read
    w = np.arange(TOP_BLOCK + 2, dtype=float)[::-1]
    w[TOP_BLOCK + 1] = w[TOP_BLOCK] - 1e-12
    assert eigendecompose(np.diag(w)).gap(TOP_BLOCK + 1) == 0.0


def test_top_k_idempotent_on_symmetric_input(rng):
    M = rng.normal(size=(8, 8))
    M = (M + M.T) / 2
    s1 = eigendecompose(M)
    s2 = eigendecompose((M + M.T) / 2)
    assert np.array_equal(s1.top_k(2).U, s2.top_k(2).U)
    assert np.array_equal(scipy.linalg.eigvalsh(s1.matrix), scipy.linalg.eigvalsh(s2.matrix))


def test_src_makes_no_scipy_eigh_call():
    # every eigenvalue and eigenvector the package reads comes from one
    # Householder reduction of its matrix, a Spectrum, or from the r x r
    # Rayleigh-Ritz matrix of a certified gap read (LAPACK dsyev)
    src = Path(graphcert.__file__).parent
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "eigh" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]
    assert calls == []


def _zero_diagonal_product(w, V):
    """V diag(w) V^T with its diagonal zeroed, materialized and exactly
    symmetric: the matrix whose gap ``linalg._ritz_gap`` reads."""
    M = (V * w) @ V.T
    M = (M + M.T) / 2.0
    np.fill_diagonal(M, 0.0)
    return M


def _low_rank(n, w, spread, seed, heavy=0.0):
    """(M, w, V): V has orthonormal columns, one per value of w, made from
    the indicators of n / r interleaved blocks plus Gaussian noise of size
    ``spread`` per unit row norm, with row 0 pushed ``heavy`` sqrt(n) along
    the columns of negative values (so d_0 is very negative, and the rest
    bound -min d lies high); M is :func:`_zero_diagonal_product`."""
    rng = np.random.default_rng(seed)
    w = np.asarray(w, dtype=float)
    r = w.size
    G = np.zeros((n, r))
    G[np.arange(n), np.arange(n) % r] = 1.0
    G += spread * rng.normal(size=(n, r)) / math.sqrt(n / r)
    G[0] += heavy * math.sqrt(n) * (w < 0)
    V = np.linalg.qr(G)[0]
    return _zero_diagonal_product(w, V), w, V


@given(
    n=st.integers(TOP_BLOCK, 120),
    pos=st.lists(st.floats(10.0, 60.0), min_size=2, max_size=3, unique=True),
    neg=st.lists(st.floats(-50.0, -10.0), max_size=1),
    k=st.integers(1, 3),
    spread=st.sampled_from([0.0, 0.05, 0.3, 2.0]),
    heavy=st.sampled_from([0.0, 0.0, 0.0, 2.0]),  # mostly none, so that reads certify
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300)
# pinned, in order: a negative kept value, k > p, k = p = 1, an undecided
# min, n <= TOP_BLOCK + r, a tie, and a heavy row that lifts the rest
# bound -min d above lambda_2
@example(n=80, pos=[20.0, 35.0], neg=[-45.0], k=2, spread=0.05, heavy=0.0, seed=7)
@example(n=80, pos=[20.0, 35.0], neg=[], k=3, spread=0.05, heavy=0.0, seed=2)
@example(n=80, pos=[30.0], neg=[], k=1, spread=0.05, heavy=0.0, seed=3)
@example(n=80, pos=[10.0, 40.0], neg=[], k=2, spread=0.05, heavy=0.0, seed=4)
@example(n=TOP_BLOCK + 2, pos=[20.0, 35.0], neg=[], k=2, spread=0.05, heavy=0.0, seed=5)
@example(n=80, pos=[30.0, 30.0 + 1e-8, 50.0], neg=[], k=2, spread=0.0, heavy=0.0, seed=6)
@example(n=80, pos=[20.0, 45.0], neg=[-45.0], k=1, spread=0.1, heavy=2.0, seed=7)
def test_ritz_gap_certified_reads_match_the_reduction(n, pos, neg, k, spread, heavy, seed):
    # a certified read is the reduction's gap of the materialized matrix,
    # tie zeroing included, within 1e-12 of the spectrum's scale, also for
    # rows of uneven norm, where the rest is not spanned by V
    assume(k <= n - 1)
    M, w, V = _low_rank(n, neg + pos, spread, seed, heavy)
    S = eigendecompose(M)
    got, reason = linalg._ritz_gap(w, V, k)
    assert reason in ("certified", "wide_block", "k_beyond_positive", "unconverged", "undecided")
    assert (got is None) == (reason != "certified")
    if got is not None:
        assert abs(got - S.gap(k)) <= 1e-12 * max(1.0, float(S.top(1)[0][0]))
    p = int(np.count_nonzero(w > 0))
    if n - TOP_BLOCK < 8 * w.size or k > p or k == p == 1:
        assert got is None


def _ritz_case(reason):
    """(M, w, V, k) whose Rayleigh-Ritz gap read falls back for ``reason``,
    or is certified."""
    n = 120
    cases = {
        "certified": ([25.0, 45.0], 2, 0.1),
        "wide_block": ([20.0, 45.0], 2, 0.1),
        "k_beyond_positive": ([-30.0, 45.0], 2, 0.1),
        "unconverged": ([20.0, 45.0], 2, 2.0),  # rows of V far from equal norms
        "undecided": ([15.0, 45.0], 2, 0.1),    # lambda_1 - lambda_2 > lambda_2 - beta
    }
    w, k, spread = cases[reason]
    if reason == "wide_block":
        n = TOP_BLOCK + 8 * len(w) - 1
    return *_low_rank(n, w, spread, 7), k


@pytest.mark.parametrize("reason,reduction", [
    ("certified", 0), ("wide_block", 1), ("k_beyond_positive", 1), ("unconverged", 1),
    ("undecided", 1),
])
def test_ritz_gap_falls_back_to_the_reduction(eig_calls, reason, reduction):
    # the read itself reduces nothing; a read it cannot certify takes the
    # reduction of the materialized matrix, as the USVT route does
    M, w, V, k = _ritz_case(reason)
    got, why = linalg._ritz_gap(w, V, k)
    assert why == reason and eig_calls["reduction"] == 0
    if got is None:
        got = eigendecompose(_zero_diagonal_product(w, V)).gap(k)
    assert eig_calls == {"subset": 0, "full": 0, "values": 0, "reduction": reduction}
    assert abs(got - eigendecompose(M).gap(k)) <= 1e-12 * 45.0


def test_ritz_gap_needs_the_tie_tolerance_proven():
    # the read proves the tie tolerance 1e-9 max(1, lambda_1) from Weyl's
    # lower end -max d of the rest; a column on two coordinates puts d_0
    # near 100, above lambda_1 near 50, so it cannot, and falls back, although
    # here the reduction finds lambda_8 = -50 / (n - 2) and a clear gap
    n = 200
    c, s = math.cos(0.01), math.sin(0.01)
    V = np.zeros((n, 3))
    V[:2, :2] = [[c, -s], [s, c]]
    V[2:, 2] = 1.0 / math.sqrt(n - 2)
    w = np.array([100.0, -1.0, 50.0])
    assert linalg._ritz_gap(w, V, 1) == (None, "undecided")
    S = eigendecompose(_zero_diagonal_product(w, V))
    assert S.top(8)[0][7] == pytest.approx(-50.0 / (n - 2))
    assert S.gap(1) == pytest.approx(50.0 * (1 - 1 / (n - 2)) - 101.0 * c * s)
    # a gap within 4 tau of the tie tolerance is undecided: a reduction may
    # round it to either side. Here lambda_1 - lambda_2 = 1e-9 lambda_1
    M, w, V = _low_rank(80, [50.0 - 5e-8, 50.0], 0.0, 0)
    assert linalg._ritz_gap(w, V, 1) == (None, "undecided")

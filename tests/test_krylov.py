"""The Krylov route of the observed spectrum (``linalg.KrylovSpectrum``).

``run_protocol`` takes it from ``protocol.KRYLOV_N0`` nodes on when no USVT
route is configured; the tests lower that constant so the route runs on
small graphs. A certified read must agree with the reduction within the
results contract, and any read it cannot certify must give the reduction's
report, byte for byte.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphcert import linalg, protocol
from graphcert.linalg import KrylovSpectrum, eigendecompose
from graphcert.models import AdjacencyMatrix, sample_adjacency, two_block_sbm, two_block_spectrum
from graphcert.protocol import config_from_dict, run_protocol

from conftest import fresh_python


def _dense_doc(n):
    """The dense benchmark's config at size n: declared gap, Katz, declared
    centers, selection, fairness and filtration, every output open."""
    spec = two_block_spectrum(n, 0.3, 0.1)
    c = 1.0 / math.sqrt(n)
    return {
        "k": 2, "alpha": 0.05,
        "envelope": {"d_max": spec.lam1, "gap": spec.gap2},
        "centrality": {"kind": "katz", "beta": 1.0 / (4.0 * spec.lam1), "domain_certified": True},
        "clustering": {"delta": 2.0 * c, "centers": [[c, c], [c, -c]], "c_row": 0.01},
        "selection_m": 5,
        "fairness": {"groups": [i % 2 for i in range(n)],
                     "targets": [((7 * i) % 11) / 10.0 for i in range(n)],
                     "tau": 2.0, "epsilon": 0.8},
        "filtration": {"t_grid": [0.05, 0.1, 0.2]},
    }


def _krylov_report(monkeypatch, A, doc):
    """The report of ``run_protocol`` with the Krylov route from n = 0 on."""
    with monkeypatch.context() as patch:
        patch.setattr(protocol, "KRYLOV_N0", 0)
        return run_protocol(A, config_from_dict(doc))


def _close(a, b, rtol):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b))))


@st.composite
def _graphs(draw):
    n = draw(st.integers(6, 24))
    bits = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    A = np.zeros((n, n))
    A[np.triu_indices(n, 1)] = bits
    return A + A.T, draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200)
@given(_graphs())
def test_cholesky_certificate_is_sound(case):
    # a t whose Cholesky completes lies above lambda_{k+1}, for the exact top
    # vectors and for perturbed, non-orthonormal ones alike; t 1e-9 below it
    # fails, and with the exact vectors t 1e-6 above it passes
    A, k, seed = case
    n = A.shape[0]
    w, V = np.linalg.eigh(A)
    w, V = w[::-1], V[:, ::-1]
    lam = float(np.linalg.eigvalsh(A)[n - k - 1])
    scale = max(1.0, float(w[0]))
    noisy = V[:, :k] + 0.1 * np.random.default_rng(seed).normal(size=(n, k))
    for U in (V[:, :k], noisy):
        for step in (-1.0, -1e-3, -1e-9, 1e-9, 1e-6, 1e-3, 1.0):
            t = lam + step * scale
            theta = np.maximum(w[:k], t)  # c = 2 (theta - t) >= 0
            hi = linalg._cholesky_bound(np.asfortranarray(A), U, theta, t, n, math.inf)
            if hi is not None:
                assert t > lam and hi > lam
            elif U is V[:, :k] and step == 1e-6 and w[k - 1] >= t:
                pytest.fail(f"t = lambda_{k + 1} + 1e-6 max(1, lambda_1) failed")


@settings(max_examples=200)
@given(_graphs())
def test_interlaced_floor_is_below_lambda_k_plus_1(case):
    # for any k orthonormal columns U and any y the floor is at most
    # lambda_{k+1}; for the exact top vectors and lambda_{k+1}'s own vector
    # it is lambda_{k+1} up to its rounding slack
    A, k, seed = case
    n = A.shape[0]
    w, V = np.linalg.eigh(A)
    w, V = w[::-1], V[:, ::-1]
    lam = float(w[k])
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(V[:, :k] + 0.1 * rng.normal(size=(n, k)))[0]
    for U, y in ((U, rng.normal(size=n)), (V[:, :k], V[:, k] + 1e-6 * rng.normal(size=n))):
        floor = linalg._interlaced_floor(np.asfortranarray(A), U, y, n)
        assert floor <= lam
    assert floor >= lam - 1e-9 * max(1.0, float(w[0]))


@pytest.mark.parametrize("n,seed", [(150, 1), (200, 1), (200, 2), (240, 3)])
def test_krylov_route_agrees_with_the_reduction(monkeypatch, eig_calls, n, seed):
    # the gap proxy, basis and Katz scores within 1e-10 relative; flags,
    # labels, refusals and the selected set equal; no reduction made
    A = sample_adjacency(two_block_sbm(n, 0.3, 0.1), seed)
    doc = _dense_doc(n)
    got = _krylov_report(monkeypatch, A, doc).to_dict()
    assert eig_calls["reduction"] == 0
    want = run_protocol(A, config_from_dict(doc)).to_dict()
    assert eig_calls["reduction"] == 1
    assert _close(got["observed_gap_proxy"]["value"], want["observed_gap_proxy"]["value"], 1e-10)
    outs, wants = got["outputs"], want["outputs"]
    assert _close(outs["subspace"]["center"], wants["subspace"]["center"], 1e-10)
    assert _close(outs["centrality_bands"]["point"], wants["centrality_bands"]["point"], 1e-10)
    assert got["flags"] == want["flags"] and got["refusals"] == want["refusals"]
    assert np.array_equal(outs["cluster"]["labels"], wants["cluster"]["labels"])
    stability, wanted = dict(outs["stability"]), dict(wants["stability"])
    # a difference of two scores: their 1e-13 agreement, relative to the margin
    assert _close(stability.pop("observed_margin"), wanted.pop("observed_margin"), 1e-9)
    assert stability == wanted
    assert sorted(outs) == sorted(wants)


def _cliques(count, size, extra=0):
    """``count`` disjoint cliques on ``size`` nodes, plus ``extra`` isolated
    nodes: lambda_1 = ... = lambda_count = size - 1."""
    A = np.kron(np.eye(count), np.ones((size, size)) - np.eye(size))
    return np.pad(A, (0, extra))


@pytest.mark.parametrize("case", ["tie", "no_block_steps", "no_lanczos_steps", "usvt"])
def test_uncertified_reads_give_the_reduction_report(monkeypatch, eig_calls, case):
    # a planted tie lambda_2 = lambda_3, a step budget of 0 and a USVT config
    # (which needs the reduction) all take the reduction: the report is the
    # reduction route's, byte for byte
    n = 200
    doc = _dense_doc(n)
    if case == "tie":
        A = AdjacencyMatrix(n=n, A=_cliques(3, 40, n - 120))
        doc["centrality"]["beta"] = 0.01
    else:
        A = sample_adjacency(two_block_sbm(n, 0.3, 0.1), 1)
    if case == "usvt":
        doc["usvt"] = {"eps_p": 1.0}
        del doc["envelope"]["gap"]
    want = run_protocol(A, config_from_dict(doc)).to_json()
    reductions = eig_calls["reduction"]
    if case == "no_block_steps":
        monkeypatch.setattr(linalg, "_TOP_STEPS", 0)
    if case == "no_lanczos_steps":
        monkeypatch.setattr(linalg, "_LANCZOS_STEPS", 0)
    got = _krylov_report(monkeypatch, A, doc).to_json()
    assert eig_calls["reduction"] == 2 * reductions
    assert got == want


def test_krylov_reads_hold_one_float64_copy(eig_calls):
    # the reads of a certify op trace less than 1.1 n^2 float64 entries at
    # their peak, with no reduction: the Cholesky overwrites F, and the
    # resolvent casts a new one after the first is freed
    n = 2000
    A = sample_adjacency(two_block_sbm(n, 0.3, 0.1), 0).A
    beta = 1.0 / (4.0 * n * 0.2)
    b = beta * A.sum(axis=1, dtype=float)
    tracemalloc.start()
    try:
        S = KrylovSpectrum(A, 2)
        S.gap(2)
        S.top_k(2)
        S.resolvent(beta, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eig_calls["reduction"] == 0
    assert peak < 1.1 * n * n * 8


@pytest.mark.parametrize("n", [protocol.KRYLOV_N0, 1000, 2000])
def test_certified_reads_need_no_reduction_across_sizes(eig_calls, n):
    # the Cholesky's margin above lambda_{k+1} comes from the k-th gap's
    # bracket budget less its rounding shift, both of which scale with n: a
    # fixed margin that serves n = 2000 overshoots the budget at small n
    for seed in (3, 4):
        S = KrylovSpectrum(sample_adjacency(two_block_sbm(n, 0.3, 0.1), seed).A, 2)
        S.gap(2)
        S.top_k(2)
        assert S.radius > 0
    assert eig_calls["reduction"] == 0


def test_top_pairs_start_from_the_lanczos_ritz_vectors(monkeypatch, eig_calls):
    # the block read starts from the Lanczos run's k + 2 largest Ritz
    # vectors, so 2 block steps certify it at n = 2000; a random start block
    # takes 16-22
    monkeypatch.setattr(linalg, "_TOP_STEPS", 2)
    S = KrylovSpectrum(sample_adjacency(two_block_sbm(2000, 0.3, 0.1), 5).A, 2)
    S.top_k(2)
    assert eig_calls["reduction"] == 0


def test_cg_returns_only_what_its_recomputed_residual_proves():
    # products rounded to float32: the recurrence residual still falls below
    # the target, but b - M x stays near 1e-8 ||x||, so no x meets the bound
    rng = np.random.default_rng(0)
    n = 50
    G = rng.normal(size=(n, n))
    M = np.eye(n) + 0.2 * (G + G.T) / math.sqrt(n)
    floor = float(np.linalg.eigvalsh(M)[0])
    b = rng.normal(size=n)

    def apply(v):
        return (M @ v).astype(np.float32).astype(float)

    x = linalg._cg(apply, b, floor)
    assert x is None or np.linalg.norm(b - apply(x)) <= linalg._CG_TOL * floor * np.linalg.norm(x)


def test_reads_beyond_the_certified_pairs_take_the_reduction(eig_calls):
    # top(m) past k, gap(k') past k and beyond() are the reduction's reads,
    # bit for bit; the certified pairs still serve top_k after it is made
    A = sample_adjacency(two_block_sbm(200, 0.3, 0.1), 1).A
    S, R = KrylovSpectrum(A, 2), eigendecompose(A)
    want = R.gap(3)
    tracemalloc.start()
    try:
        basis = S.top_k(2)  # S now holds F
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert S.gap(3) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held < 200 * 200 * 8 / 2  # F went before the reduction's array came
    assert eig_calls["reduction"] == 2  # S's and R's
    for got, want in ((S.top(3), R.top(3)), (S.beyond(10.0), R.beyond(10.0))):
        assert all(g.tobytes() == h.tobytes() for g, h in zip(got, want))
    assert S.top_k(2).U.tobytes() == basis.U.tobytes()


def test_resolvent_outside_the_domain_is_the_reductions():
    # 1 - beta lambda_1 <= 0: no CG, the reduction's solve refuses it
    A = sample_adjacency(two_block_sbm(200, 0.3, 0.1), 1).A
    S = KrylovSpectrum(A, 2)
    with pytest.raises(np.linalg.LinAlgError, match="dptsv"):
        S.resolvent(1.0, np.ones(200))


def test_top_k_after_a_wide_beyond_is_a_fresh_read():
    # beyond() below lambda_8 reads 16 pairs; that read is not kept, so
    # top_k(2) after it equals a fresh spectrum's bit for bit
    rng = np.random.default_rng(0)
    A = np.triu((rng.random((40, 40)) < 0.5).astype(np.int8), 1)
    A = A + A.T
    thr = float(eigendecompose(A).top(12)[0][9])
    S = eigendecompose(A)
    assert S.beyond(thr)[0].size >= 10
    assert S.top_k(2).U.tobytes() == eigendecompose(A).top_k(2).U.tobytes()


_REPORT_SCRIPT = """
import hashlib, sys
from graphcert import protocol
from graphcert.models import sample_adjacency, two_block_sbm
from graphcert.protocol import config_from_dict, run_protocol
import json
protocol.KRYLOV_N0 = 0
doc = json.loads(sys.argv[1])
A = sample_adjacency(two_block_sbm(200, 0.3, 0.1), 2)
print(hashlib.sha256(run_protocol(A, config_from_dict(doc)).to_json().encode()).hexdigest())
"""


def test_krylov_reports_repeat_in_fresh_processes(monkeypatch):
    # the start blocks are fixed: two processes write the same bytes
    import json

    doc = _dense_doc(200)
    A = sample_adjacency(two_block_sbm(200, 0.3, 0.1), 2)
    here = hashlib.sha256(_krylov_report(monkeypatch, A, doc).to_json().encode()).hexdigest()
    for _ in range(2):
        run = fresh_python("-c", _REPORT_SCRIPT, json.dumps(doc))
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == here

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from graphcert import (
    EmptyGroup,
    FairnessProblem,
    InsufficientTolerance,
    NotSymmetric,
    OrthonormalBasis,
    ShapeMismatch,
    distance_matrix,
    fair_optimize,
    feasibility_transfer_check,
    filtration_envelope,
    grassmann_distance,
    logistic_decisions,
    parity_gap,
    ridge_risk,
    ridge_risk_bound,
    threshold_snapshots,
    tradeoff_bounds,
)
from graphcert import downstream
from graphcert.downstream import ThresholdSnapshot, quadratic_loss

from conftest import random_orthonormal


def test_ridge_risk_in_span():
    U = OrthonormalBasis(U=np.eye(6)[:, :2])
    y = U.U @ np.array([2.0, -1.0])
    lam = 0.7
    risk = ridge_risk(U, y, lam)
    expected = (lam / (1 + lam)) ** 2 * float(y @ y) / 6
    assert abs(risk - expected) < 1e-12


def test_ridge_risk_orthogonal_response():
    U = OrthonormalBasis(U=np.eye(6)[:, :2])
    y = np.zeros(6)
    y[3] = 2.0
    assert abs(ridge_risk(U, y, 1.0) - float(y @ y) / 6) < 1e-12


def test_ridge_risk_matches_direct_formula(rng):
    for _ in range(30):
        U = OrthonormalBasis(U=random_orthonormal(rng, 10, 3))
        y = rng.normal(size=10)
        lam = float(rng.uniform(0.1, 5))
        direct = np.linalg.norm(y - (U.U @ U.U.T @ y) / (1 + lam)) ** 2 / 10
        assert abs(ridge_risk(U, y, lam) - direct) < 1e-12


def test_ridge_risk_bound_audit(rng):
    # |R(U) - R(V)| <= 2 ||y||^2 d_Gr(U, V) / (n (1 + lam)), 1000 trials
    n = 12
    violations = 0
    for _ in range(1000):
        U = OrthonormalBasis(U=random_orthonormal(rng, n, 2))
        V = OrthonormalBasis(U=random_orthonormal(rng, n, 2))
        y = rng.normal(size=n)
        lam = float(rng.uniform(0.1, 3))
        d = grassmann_distance(U, V)
        gap = abs(ridge_risk(U, y, lam) - ridge_risk(V, y, lam))
        if gap > ridge_risk_bound(y, lam, d, n) + 1e-10:
            violations += 1
    assert violations == 0


def test_ridge_risk_bound_monotone_in_lambda():
    y = np.ones(5)
    assert ridge_risk_bound(y, 2.0, 0.5, 5) < ridge_risk_bound(y, 1.0, 0.5, 5)
    assert ridge_risk_bound(y, 1.0, 0.0, 5) == 0.0


def test_ridge_risk_shape_mismatch():
    U = OrthonormalBasis(U=np.eye(4)[:, :2])
    with pytest.raises(ShapeMismatch):
        ridge_risk(U, np.ones(5), 1.0)


# ---------------------------------------------------------------------------
# fairness

def _problem(rng, n=40, tau=0.5, epsilon=0.2):
    x = rng.normal(size=n)
    y = rng.uniform(size=n)
    s = (np.arange(n) % 2).astype(int)
    return FairnessProblem(x=x, y=y, s=s, tau=tau, epsilon=epsilon)


def test_fairness_problem_rejects_targets_outside_unit_interval():
    x, s = np.zeros(4), np.array([0, 1, 0, 1])
    FairnessProblem(x=x, y=[0.0, 0.5, 0.5, 1.0], s=s, tau=1.0, epsilon=0.1)
    for bad in (np.nan, -0.1, 1.1):  # NaN compares false both ways
        with pytest.raises(ValueError, match="targets must lie in"):
            FairnessProblem(x=x, y=[bad, 0.5, 0.5, 0.5], s=s, tau=1.0, epsilon=0.1)


def test_logistic_decisions_limits(rng):
    p = _problem(rng)
    d = logistic_decisions(p.x, p.s, p.tau, np.array([1e6, 1e6]))
    assert np.all(d < 1e-10)
    d = logistic_decisions(p.x, p.s, p.tau, np.array([p.x[0], p.x[0]]))
    assert abs(d[0] - 0.5) < 1e-12


def test_logistic_coordinate_lipschitz(rng):
    # |d(x + h) - d(x)| <= |h| / (4 tau), finite-difference audit
    p = _problem(rng, tau=0.3)
    theta = np.array([0.1, -0.2])
    base = logistic_decisions(p.x, p.s, p.tau, theta)
    for _ in range(200):
        h = rng.normal(scale=0.1, size=p.x.size)
        shifted = FairnessProblem(x=p.x + h, y=p.y, s=p.s, tau=p.tau, epsilon=p.epsilon)
        d = logistic_decisions(shifted.x, shifted.s, shifted.tau, theta)
        assert np.all(np.abs(d - base) <= np.abs(h) / (4 * p.tau) + 1e-12)


def test_parity_gap_trivial_cases(rng):
    s = np.array([0, 0, 1, 1])
    assert parity_gap(np.ones(4), s) == 0.0
    assert parity_gap(np.array([0.3, 0.7, 0.7, 0.3]), s) == 0.0
    d = rng.uniform(size=4)
    oracle = abs(d[:2].mean() - d[2:].mean())
    assert abs(parity_gap(d, s) - oracle) < 1e-15
    with pytest.raises(EmptyGroup):
        parity_gap(np.ones(3), np.zeros(3, dtype=int))


def _unconstrained_grid_oracle(p):
    # the same coarse-to-fine schedule with the constraint dropped
    x, y, s, tau = p.x, p.y, p.s, p.tau
    lo, hi = float(x.min() - 10 * tau), float(x.max() + 10 * tau)
    c0 = c1 = (lo + hi) / 2
    half = (hi - lo) / 2
    best = None
    for _ in range(3):
        g0 = np.linspace(c0 - half, c0 + half, 101)
        g1 = np.linspace(c1 - half, c1 + half, 101)
        for t0 in g0:
            for t1 in g1:
                d = np.where(s == 0, 1 / (1 + np.exp(-(x - t0) / tau)),
                             1 / (1 + np.exp(-(x - t1) / tau)))
                cand = (float(np.mean((d - y) ** 2)), float(t0), float(t1))
                if best is None or cand < best:
                    best = cand
        c0, c1 = best[1], best[2]
        half = g0[1] - g0[0]
    return np.array([best[1], best[2]])


def test_fair_optimize_slack_constraint_matches_unconstrained(rng):
    # parity gaps never exceed 1, so epsilon = 1 cannot bind and the
    # result must equal the unconstrained grid optimum
    p = _problem(rng, n=20, epsilon=1.0)
    theta_con = fair_optimize(p, 1.0)
    theta_un = _unconstrained_grid_oracle(p)
    assert np.allclose(theta_con, theta_un)


def test_fair_optimize_zero_targets_pushes_decisions_down(rng):
    n = 30
    x = rng.normal(size=n)
    p = FairnessProblem(
        x=x, y=np.zeros(n), s=(np.arange(n) % 2).astype(int), tau=0.5, epsilon=1.0
    )
    theta = fair_optimize(p, 1.0)
    d = logistic_decisions(p.x, p.s, p.tau, theta)
    assert np.all(d < 1e-3)
    # the optimizer walked to (or past) the top corner of the search box
    assert np.all(theta >= x.max() + 10 * 0.5 - 0.5)


def test_fair_optimize_constrained_never_beats_unconstrained(rng):
    p = _problem(rng, tau=0.4, epsilon=0.05)
    theta_un = fair_optimize(p, 1.0)
    theta_fair = fair_optimize(p, 0.05)
    d_un = logistic_decisions(p.x, p.s, p.tau, theta_un)
    d_fair = logistic_decisions(p.x, p.s, p.tau, theta_fair)
    loss_gap = quadratic_loss(d_fair, p.y) - quadratic_loss(d_un, p.y)
    assert loss_gap >= -1e-9
    out = tradeoff_bounds(d_fair, d_un, p.y, p.tau, float(np.max(np.abs(theta_fair - theta_un))))
    assert out.loss_gap <= out.bound_l2 + 1e-12
    assert not out.l2_exceeded and not out.shift_exceeded


def test_feasibility_transfer_check_reduces_to_plain_constraint(rng):
    p = _problem(rng)
    theta = np.array([0.0, 0.0])
    d = logistic_decisions(p.x, p.s, p.tau, theta)
    gap = parity_gap(d, p.s)
    assert feasibility_transfer_check(theta, p.x, p.s, 0.0, p.tau, gap + 1e-9)
    assert not feasibility_transfer_check(theta, p.x, p.s, 0.0, p.tau, gap - 1e-9)


def test_feasibility_transfer_arithmetic(rng):
    # tau=1, r=0.1, eps=0.2: passes iff the observed gap is at most 0.1
    n = 20
    x = rng.normal(size=n)
    s = (np.arange(n) % 2).astype(int)
    theta = np.array([0.0, 0.3])
    gap = parity_gap(logistic_decisions(x, s, 1.0, theta), s)
    expect = gap <= 0.2 - 0.1
    assert feasibility_transfer_check(theta, x, s, 0.1, 1.0, 0.2) == expect
    with pytest.raises(InsufficientTolerance):
        feasibility_transfer_check(theta, x, s, 0.5, 1.0, 0.2)


def test_feasibility_transfer_adversarial_audit(rng):
    # any passing theta keeps parity within epsilon on the whole score ball
    n = 30
    tau, r, eps = 0.5, 0.15, 0.4
    x_hat = rng.normal(size=n)
    s = (np.arange(n) % 2).astype(int)
    passing = []
    for t0 in np.linspace(-2, 2, 9):
        for t1 in np.linspace(-2, 2, 9):
            theta = np.array([t0, t1])
            try:
                if feasibility_transfer_check(theta, x_hat, s, r, tau, eps):
                    passing.append(theta)
            except InsufficientTolerance:
                pass
    assert passing, "audit needs at least one passing theta"
    violations = 0
    for _ in range(1000):
        x_star = x_hat + rng.uniform(-r, r, size=n)
        for theta in passing:
            if parity_gap(logistic_decisions(x_star, s, tau, theta), s) > eps + 1e-9:
                violations += 1
    assert violations == 0


def test_tradeoff_bounds_zero_case(rng):
    d = rng.uniform(size=10)
    y = rng.uniform(size=10)
    out = tradeoff_bounds(d, d, y, tau=0.5, delta_theta=0.0)
    assert out.loss_gap == 0.0 and out.bound_l2 == 0.0 and out.bound_shift == 0.0
    assert not out.l2_exceeded and not out.shift_exceeded


def test_tradeoff_bounds_report_an_exceeded_bound(rng):
    # a shift understated tenfold breaks the shift bound; targets outside
    # [0, 1] break the l2 chain, which needs |d_fair + d_un - 2y| <= 2
    n, tau, shift = 30, 0.4, 0.3
    x = rng.normal(size=n)
    s = (np.arange(n) % 2).astype(int)
    d_a = logistic_decisions(x, s, tau, np.array([0.0, 0.0]))
    d_b = logistic_decisions(x, s, tau, np.array([shift, shift]))
    y = np.zeros(n)
    out = tradeoff_bounds(d_a, d_b, y, tau, shift / 10)
    assert out.loss_gap > out.bound_shift + 1e-12
    assert out.shift_exceeded and not out.l2_exceeded
    assert not tradeoff_bounds(d_a, d_b, y, tau, shift).shift_exceeded
    assert not tradeoff_bounds(d_a, d_b, y, tau, 0.0).shift_exceeded  # opted out
    out = tradeoff_bounds(d_a, d_b, np.full(n, -10.0), tau, 0.0)
    assert out.loss_gap > out.bound_l2 + 1e-12
    assert out.l2_exceeded and not out.shift_exceeded
    # a NaN decision would make both comparisons read "within": refused
    d_a[3] = np.nan
    with pytest.raises(ValueError, match="decisions must lie in"):
        tradeoff_bounds(d_a, d_b, y, tau, shift)


def test_tradeoff_bounds_random_pairs(rng):
    # loss gap <= (2/sqrt(n)) || delta d ||_2, 1000 trials
    n = 25
    for _ in range(1000):
        a = rng.uniform(size=n)
        b = rng.uniform(size=n)
        y = rng.uniform(size=n)
        gap = quadratic_loss(a, y) - quadratic_loss(b, y)
        assert gap <= 2 / math.sqrt(n) * np.linalg.norm(a - b) + 1e-12


def test_tradeoff_shift_bound(rng):
    # fixed scores, thresholds shifted by delta: gap <= delta / (2 tau)
    n, tau = 30, 0.4
    x = rng.normal(size=n)
    s = (np.arange(n) % 2).astype(int)
    y = rng.uniform(size=n)
    for _ in range(200):
        t0 = rng.normal()
        shift = float(rng.uniform(0, 1))
        d_a = logistic_decisions(x, s, tau, np.array([t0, t0]))
        d_b = logistic_decisions(x, s, tau, np.array([t0 + shift, t0 + shift]))
        out = tradeoff_bounds(d_a, d_b, y, tau, shift)
        assert out.loss_gap <= out.bound_shift + 1e-12
        assert not out.l2_exceeded and not out.shift_exceeded


def test_sigmoid_slope_never_exceeds_quarter_tau(rng):
    tau = 0.7
    x = rng.normal(size=1000)
    d1 = 1 / (1 + np.exp(-(x) / tau))
    h = 1e-6
    d2 = 1 / (1 + np.exp(-(x + h) / tau))
    assert np.max(np.abs(d2 - d1) / h) <= 1 / (4 * tau) + 1e-12


# ---------------------------------------------------------------------------
# filtrations

def test_distance_matrix_trivial():
    X = np.tile([1.0, 2.0], (4, 1))
    assert np.all(distance_matrix(X) == 0)
    X = np.array([[0.0, 0.0], [1.0, 0.0]])
    D = distance_matrix(X)
    assert D[0, 1] == D[1, 0] == 1.0


def test_distance_matrix_matches_pairwise(rng):
    X = rng.normal(size=(15, 3))
    D = distance_matrix(X)
    for i in range(15):
        for j in range(15):
            assert abs(D[i, j] - np.linalg.norm(X[i] - X[j])) < 1e-10
    # rows close together far from the origin: the distances stay exact
    # to rounding, where a Gram-matrix route cancels most of its digits
    X = 1.0 + 1e-4 * rng.normal(size=(15, 2))
    D = distance_matrix(X)
    for i in range(15):
        for j in range(15):
            exact = np.linalg.norm(X[i] - X[j])
            assert abs(D[i, j] - exact) <= 1e-15 * exact, (i, j)


def test_filtration_identity_case(rng):
    X = rng.normal(size=(10, 2))
    report = filtration_envelope(X, X, [0.5, 1.0, 2.0])
    assert report.eta == 0.0
    assert report.d_filt == 0.0
    for snap in report.snapshots:
        assert snap.lower_included and snap.upper_included
        assert snap.edges_lower == snap.edges_point == snap.edges_upper


def test_filtration_translation_invariance(rng):
    X = rng.normal(size=(10, 2))
    Y = X + np.array([5.0, -3.0])
    report = filtration_envelope(X, Y, [1.0])
    assert report.d_filt < 1e-10  # distances unchanged
    assert report.eta > 1.0       # rows moved a lot
    assert report.inequality_ok
    assert report.snapshots[0].lower_included and report.snapshots[0].upper_included


def test_filtration_random_perturbations(rng):
    # d_filt <= 2 eta on 1000 trials
    for _ in range(1000):
        X = rng.normal(size=(8, 2))
        Y = X + rng.normal(scale=0.2, size=(8, 2))
        report = filtration_envelope(X, Y, [])
        assert report.d_filt <= 2 * report.eta + 1e-12
        assert report.inequality_ok


def test_filtration_sandwich_on_grid(rng):
    for _ in range(50):
        X = rng.normal(size=(12, 3))
        Y = X + rng.normal(scale=0.1, size=(12, 3))
        report = filtration_envelope(X, Y, np.linspace(0.0, 4.0, 9))
        for snap in report.snapshots:
            assert snap.lower_included
            assert snap.upper_included
            assert snap.edges_lower <= snap.edges_point <= snap.edges_upper


def _brute_force_snapshots(DX, DY, eta, t_grid):
    """The definition: one upper-triangular edge mask per threshold graph
    (negative thresholds give the empty graph) and its connected components."""
    n = DX.shape[0]

    def edges(D, t):
        mask = np.triu(D <= t, k=1)
        if t < 0:
            mask[:] = False
        return mask

    def components(mask):
        ii, jj = np.nonzero(mask)
        graph = csr_matrix((np.ones(ii.size), (ii, jj)), shape=(n, n))
        return int(connected_components(graph, directed=False)[0])

    snapshots = []
    for t in np.asarray(t_grid, dtype=float):
        low = edges(DX, t - 2.0 * eta)
        mid = edges(DY, t)
        high = edges(DX, t + 2.0 * eta)
        snapshots.append(ThresholdSnapshot(
            t=float(t),
            lower_included=bool(np.all(mid[low])),
            upper_included=bool(np.all(high[mid])),
            edges_lower=int(low.sum()),
            edges_point=int(mid.sum()),
            edges_upper=int(high.sum()),
            components_lower=components(low),
            components_point=components(mid),
            components_upper=components(high),
        ))
    return tuple(snapshots)


_ONE_DECIMAL = st.integers(-20, 20).map(lambda v: v / 10.0)


@st.composite
def _filtration_cases(draw):
    """Rows on a one-decimal grid (exact distance ties), some duplicated
    (zero distances); Y is X itself or a one-decimal perturbation of it."""
    n = draw(st.integers(0, 7))
    k = draw(st.integers(1, 3))
    X = np.array(
        draw(st.lists(_ONE_DECIMAL, min_size=n * k, max_size=n * k)), dtype=float
    ).reshape(n, k)
    if n >= 2:
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=3)):
            X[i] = X[j]
    DX = distance_matrix(X)
    if draw(st.booleans()):
        DY = DX
    else:
        shift = np.array(
            draw(st.lists(_ONE_DECIMAL, min_size=n * k, max_size=n * k)), dtype=float
        ).reshape(n, k)
        DY = distance_matrix(X + shift / 4.0)
    eta = draw(st.sampled_from([0.0, 0.05, 0.1, 0.35]))
    return DX, DY, eta


@settings(max_examples=60)
@given(case=_filtration_cases())
def test_threshold_snapshots_match_brute_force(case):
    DX, DY, eta = case
    # every pairwise distance is a threshold, so every tree weight is one,
    # also after the shift by 2 eta; negative and zero thresholds too
    dists = np.unique(np.concatenate([DX[np.triu_indices_from(DX, 1)],
                                      DY[np.triu_indices_from(DY, 1)]]))
    t_grid = np.concatenate([[-0.3, -0.0, 0.0], dists, dists + 2.0 * eta, dists - 2.0 * eta])
    assert threshold_snapshots(DX, DY, eta, t_grid) == _brute_force_snapshots(DX, DY, eta, t_grid)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_threshold_snapshots_tiny_graphs(n):
    X = np.zeros((n, 2))  # n = 2: a duplicated row, distance 0
    D = distance_matrix(X)
    t_grid = [-1.0, 0.0, 1.0]
    got = threshold_snapshots(D, D, 0.0, t_grid)
    assert got == _brute_force_snapshots(D, D, 0.0, t_grid)
    assert [s.components_point for s in got] == [n, 1 if n else 0, 1 if n else 0]


def test_threshold_snapshots_empty_grid_builds_no_tree(monkeypatch, rng):
    calls = []

    def counted(D):
        calls.append(D.shape)
        return tree(D)

    tree = downstream._mst_weights
    monkeypatch.setattr(downstream, "_mst_weights", counted)
    X = rng.normal(size=(30, 2))
    Y = X + rng.normal(scale=0.1, size=(30, 2))
    D = distance_matrix(X)
    assert threshold_snapshots(D, D, 0.1, ()) == ()
    assert filtration_envelope(X, Y, ()).snapshots == ()
    assert calls == []
    threshold_snapshots(D, D, 0.1, [0.5, 1.0])
    assert len(calls) == 1  # one tree serves both sides of one embedding
    filtration_envelope(X, Y, [0.5, 1.0])
    assert len(calls) == 3


def test_threshold_snapshots_refuse_asymmetric_or_nan():
    D = distance_matrix(np.array([[0.0], [1.0], [3.0]]))
    bent = D.copy()
    bent[0, 1] += 1e-12
    with pytest.raises(NotSymmetric):
        threshold_snapshots(bent, bent, 0.0, [1.0])
    with pytest.raises(NotSymmetric):
        threshold_snapshots(D, bent, 0.0, [1.0])
    holed = D.copy()
    holed[0, 2] = holed[2, 0] = np.nan
    with pytest.raises(NotSymmetric):
        threshold_snapshots(holed, holed, 0.0, [1.0])
    with pytest.raises(ShapeMismatch):
        threshold_snapshots(D, D[:2, :2], 0.0, [1.0])

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.cluster.hierarchy
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial.distance import cdist

from graphcert import (
    EmptyGroup,
    FairnessProblem,
    InsufficientTolerance,
    NonFiniteRows,
    ShapeMismatch,
    eigendecompose,
    fair_optimize,
    feasibility_transfer_check,
    logistic_decisions,
    parity_gap,
    sample_adjacency,
    threshold_snapshots,
    two_block_sbm,
)
from graphcert.downstream import ThresholdSnapshot, _sigmoid, band_tolerance, quadratic_loss

from conftest import filtration_sandwich


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


def _per_threshold_loop(p, effective_epsilon):
    """The reference optimizer: one Python pass per group-0 threshold, with
    a feasible and a least-violation lexsort in each; returns the
    thresholds and whether some grid point was feasible."""
    x, y, s, tau = p.x, p.y, p.s, p.tau
    mask0 = s == 0
    mask1 = ~mask0
    lo = float(x.min() - 10.0 * tau)
    hi = float(x.max() + 10.0 * tau)
    best = None  # (loss, theta0, theta1)
    fallback = None  # (violation, loss, theta0, theta1)
    center0, center1 = (lo + hi) / 2.0, (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    for _stage in range(3):
        g0 = np.linspace(center0 - half, center0 + half, 101)
        g1 = np.linspace(center1 - half, center1 + half, 101)
        D1 = _sigmoid((x[mask1][None, :] - g1[:, None]) / tau)
        mean1 = D1.mean(axis=1)
        sq1 = ((D1 - y[mask1][None, :]) ** 2).sum(axis=1)
        for t0 in g0:
            d0 = _sigmoid((x[mask0] - t0) / tau)
            gaps = np.abs(d0.mean() - mean1)
            losses = (((d0 - y[mask0]) ** 2).sum() + sq1) / x.size
            feasible = gaps <= effective_epsilon
            if feasible.any():
                sub = np.flatnonzero(feasible)
                i = sub[np.lexsort((g1[sub], losses[sub]))[0]]
                cand = (float(losses[i]), float(t0), float(g1[i]))
                if best is None or cand < best:
                    best = cand
            viol = np.maximum(gaps - effective_epsilon, 0.0)
            j = np.lexsort((g1, losses, viol))[0]
            fcand = (float(viol[j]), float(losses[j]), float(t0), float(g1[j]))
            if fallback is None or fcand < fallback:
                fallback = fcand
        if best is not None:
            center0, center1 = best[1], best[2]
        else:
            center0, center1 = fallback[2], fallback[3]
        half = (g0[1] - g0[0])
    if best is not None:
        return np.array([best[1], best[2]]), True
    return np.array([fallback[2], fallback[3]]), False


@st.composite
def _fairness_cases(draw):
    """Generic, tied (a half-integer lattice) or all-equal scores; 0/1 or
    uniform targets; tau from 1e-2 to 10; a tolerance of 0, 1e-9, 1e-4 or
    uniform on [0, 1]."""
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = draw(st.sampled_from(["generic", "tied", "equal"]))
    if scores == "generic":
        x = rng.normal(size=n)
    elif scores == "tied":
        x = rng.integers(-3, 4, size=n) / 2.0
    else:
        x = np.full(n, rng.normal())
    y = rng.integers(0, 2, size=n).astype(float) if draw(st.booleans()) else rng.uniform(size=n)
    s = rng.integers(0, 2, size=n)
    s[rng.choice(n, size=2, replace=False)] = [0, 1]
    tau = 10.0 ** draw(st.floats(-2.0, 1.0))
    epsilon = draw(st.sampled_from([0.0, 1e-9, 1e-4, None]))
    if epsilon is None:
        epsilon = draw(st.floats(0.0, 1.0))
    return FairnessProblem(x=x, y=y, s=s, tau=tau, epsilon=epsilon), epsilon


def test_fair_optimize_matches_the_per_threshold_loop():
    # each stage as one 101 x 101 array pass keeps the arithmetic of the
    # loop: row means and sums over the contiguous axis, elementwise
    # sigmoids, the same lexicographic tie order. Both branches are drawn:
    # a tolerance of 0 or 1e-9 is below the sigmoid floor unless the
    # groups' scores coincide
    branches = set()

    @settings(max_examples=120, deadline=None)
    @given(case=_fairness_cases())
    def same_thresholds(case):
        p, epsilon = case
        want, feasible = _per_threshold_loop(p, epsilon)
        assert np.array_equal(fair_optimize(p, epsilon), want)
        branches.add(feasible)

    same_thresholds()
    assert branches == {True, False}


_FOUR_NODES = (np.arange(4.0), np.full(4, 0.5), np.array([0, 1, 0, 1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fairness_problem_refuses_nonfinite_scores(bad):
    # a NaN score was accepted, and fair_optimize then blamed the temperature
    x, y, s = _FOUR_NODES
    with pytest.raises(NonFiniteRows, match="scores"):
        FairnessProblem(x=np.where(s == 1, bad, x), y=y, s=s, tau=1.0, epsilon=0.1)


def test_fairness_problem_refuses_nan_temperature():
    x, y, s = _FOUR_NODES
    with pytest.raises(ValueError, match="temperature must be positive"):
        FairnessProblem(x=x, y=y, s=s, tau=np.nan, epsilon=0.1)


def test_fair_optimize_refuses_nan_tolerance():
    # a NaN tolerance passes no comparison, and thresholds came back
    x, y, s = _FOUR_NODES
    p = FairnessProblem(x=x, y=y, s=s, tau=0.5, epsilon=0.1)
    with pytest.raises(ValueError, match="effective epsilon must be nonnegative"):
        fair_optimize(p, np.nan)


@pytest.mark.parametrize("r, tau, epsilon, message", [
    (np.nan, 1.0, 0.5, "band radius"),
    (0.1, np.nan, 0.5, "temperature"),
    (0.1, 1.0, np.nan, "epsilon is NaN"),
])
def test_feasibility_transfer_check_refuses_nan_inputs(r, tau, epsilon, message):
    # each read a False check before: no comparison with NaN holds
    x, _, s = _FOUR_NODES
    with pytest.raises(ValueError, match=message):
        feasibility_transfer_check(np.zeros(2), x, s, r, tau, epsilon)
    with pytest.raises(ValueError, match=message):
        band_tolerance(r, tau, epsilon)


@pytest.mark.parametrize("tau", [0.0, -1.0, math.nan])
def test_logistic_decisions_refuse_a_temperature_that_is_not_positive(tau):
    # tau = 0 gave a NaN decision where a score met its threshold (0/0) and
    # tau = -1 inverted every decision
    x, _, s = _FOUR_NODES
    with pytest.raises(ValueError, match="temperature must be positive"):
        logistic_decisions(x, s, tau, np.zeros(2))


def test_logistic_decisions_refuse_a_nan_threshold():
    # a NaN threshold gave NaN decisions, and the transfer check read False
    x, _, s = _FOUR_NODES
    theta = np.array([0.0, math.nan])
    with pytest.raises(ValueError, match="thresholds hold a NaN"):
        logistic_decisions(x, s, 1.0, theta)
    with pytest.raises(ValueError, match="thresholds hold a NaN"):
        feasibility_transfer_check(theta, x, s, 0.1, 1.0, 0.5)


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
    assert band_tolerance(0.1, 1.0, 0.2) == 0.2 - 0.1
    # the refusal text is the report's insufficient_tolerance detail
    with pytest.raises(InsufficientTolerance, match=r"^epsilon 0.2 < band slack 0.5$"):
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


def test_tradeoff_bounds_random_pairs(rng):
    # loss gap <= (2/sqrt(n)) || delta d ||_2, 1000 trials
    n = 25
    for _ in range(1000):
        a = rng.uniform(size=n)
        b = rng.uniform(size=n)
        y = rng.uniform(size=n)
        gap = quadratic_loss(a, y) - quadratic_loss(b, y)
        assert gap <= 2 / math.sqrt(n) * np.linalg.norm(a - b) + 1e-12


def test_sigmoid_slope_never_exceeds_quarter_tau(rng):
    tau = 0.7
    x = rng.normal(size=1000)
    d1 = 1 / (1 + np.exp(-(x) / tau))
    h = 1e-6
    d2 = 1 / (1 + np.exp(-(x + h) / tau))
    assert np.max(np.abs(d2 - d1) / h) <= 1 / (4 * tau) + 1e-12


# ---------------------------------------------------------------------------
# filtrations

def _pairwise_distances(X):
    """The oracle: each distance from its definition in Python floats, the
    squared coordinate differences summed in order. (``np.linalg.norm``
    fuses multiply-adds in its dot product, so it differs from this in the
    last bit for many pairs, and a threshold equal to a distance would not
    test the tie.)"""
    n = X.shape[0]
    return np.array([
        math.sqrt(sum((a - b) ** 2 for a, b in zip(X[i].tolist(), X[j].tolist())))
        for i in range(n) for j in range(n)
    ]).reshape(n, n)


def test_threshold_snapshots_of_trivial_rows():
    # identical rows are joined at distance 0; two rows at distance 1 are
    # joined at t = 1 and not one ulp below
    snap, = threshold_snapshots(np.tile([1.0, 2.0], (4, 1)), 0.0, [0.0])
    assert (snap.edges_point, snap.components_point) == (6, 1)
    X = np.array([[0.0, 0.0], [1.0, 0.0]])
    below, at = threshold_snapshots(X, 0.0, [np.nextafter(1.0, 0.0), 1.0])
    assert (below.edges_point, below.components_point) == (0, 2)
    assert (at.edges_point, at.components_point) == (1, 1)


def test_threshold_snapshots_match_pairwise_distances(rng):
    # thresholds 1e-15 relative either side of each pairwise distance: a
    # distance further than that from the oracle's moves an edge count. Rows
    # close together far from the origin too, where a Gram-matrix route
    # cancels most of the digits of a distance
    for X in (rng.normal(size=(15, 3)), 1.0 + 1e-4 * rng.normal(size=(15, 2))):
        d = _pairwise_distances(X)[np.triu_indices(15, 1)]
        t_grid = np.concatenate([d * (1 - 1e-15), d * (1 + 1e-15)])
        assert threshold_snapshots(X, 0.0, t_grid) == _brute_force_snapshots(X, 0.0, t_grid)


def test_filtration_identity_case(rng):
    X = rng.normal(size=(10, 2))
    eta, d_filt, included = filtration_sandwich(X, X, [0.5, 1.0, 2.0])
    assert eta == 0.0
    assert d_filt == 0.0
    assert all(lower and upper for lower, upper in included)
    for snap in threshold_snapshots(X, eta, [0.5, 1.0, 2.0]):
        assert snap.edges_lower == snap.edges_point == snap.edges_upper


def test_filtration_translation_invariance(rng):
    X = rng.normal(size=(10, 2))
    Y = X + np.array([5.0, -3.0])
    eta, d_filt, included = filtration_sandwich(X, Y, [1.0])
    assert d_filt < 1e-10  # distances unchanged
    assert eta > 1.0       # rows moved a lot
    assert d_filt <= 2 * eta + 1e-12
    assert included == [(True, True)]


def test_filtration_random_perturbations(rng):
    # d_filt <= 2 eta on 1000 trials
    for _ in range(1000):
        X = rng.normal(size=(8, 2))
        Y = X + rng.normal(scale=0.2, size=(8, 2))
        eta, d_filt, _ = filtration_sandwich(X, Y, [])
        assert d_filt <= 2 * eta + 1e-12


def test_filtration_sandwich_on_grid(rng):
    # the inequality behind the report's note: an embedding Y within rowwise
    # distance eta of X has G_t(Y) between X's lower and upper snapshots
    t_grid = np.linspace(0.0, 4.0, 9)
    for _ in range(50):
        X = rng.normal(size=(12, 3))
        Y = X + rng.normal(scale=0.1, size=(12, 3))
        eta, _, included = filtration_sandwich(X, Y, t_grid)
        assert all(lower and upper for lower, upper in included)
        around_x = threshold_snapshots(X, eta, t_grid)
        at_y = threshold_snapshots(Y, 0.0, t_grid)
        for sx, sy in zip(around_x, at_y):
            assert sx.edges_lower <= sy.edges_point <= sx.edges_upper
            assert sx.components_lower >= sy.components_point >= sx.components_upper


def _brute_force_snapshots(X, eta, t_grid):
    """The definition: one upper-triangular edge mask of the oracle's
    distances per threshold graph (negative thresholds give the empty
    graph) and its connected components."""
    D = _pairwise_distances(X)
    n = D.shape[0]

    def edges(t):
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
        low, mid, high = edges(t - 2.0 * eta), edges(t), edges(t + 2.0 * eta)
        snapshots.append(ThresholdSnapshot(
            t=float(t),
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
    (zero distances); and a shift eta."""
    n = draw(st.integers(0, 7))
    k = draw(st.integers(1, 3))
    X = np.array(
        draw(st.lists(_ONE_DECIMAL, min_size=n * k, max_size=n * k)), dtype=float
    ).reshape(n, k)
    if n >= 2:
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=3)):
            X[i] = X[j]
    eta = draw(st.sampled_from([0.0, 0.05, 0.1, 0.35]))
    return X, eta


@settings(max_examples=60)
@given(case=_filtration_cases())
def test_threshold_snapshots_match_brute_force(case):
    X, eta = case
    # every pairwise distance is a threshold, so every tree weight is one,
    # also after the shift by 2 eta; negative and zero thresholds too
    D = _pairwise_distances(X)
    dists = np.unique(D[np.triu_indices_from(D, 1)])
    t_grid = np.concatenate([[-0.3, -0.0, 0.0], dists, dists + 2.0 * eta, dists - 2.0 * eta])
    assert threshold_snapshots(X, eta, t_grid) == _brute_force_snapshots(X, eta, t_grid)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_threshold_snapshots_tiny_graphs(n):
    X = np.zeros((n, 2))  # n = 2: a duplicated row, distance 0
    t_grid = [-1.0, 0.0, 1.0]
    got = threshold_snapshots(X, 0.0, t_grid)
    assert got == _brute_force_snapshots(X, 0.0, t_grid)
    assert [s.components_point for s in got] == [n, 1 if n else 0, 1 if n else 0]


def test_threshold_snapshots_empty_grid_builds_no_tree(monkeypatch, rng):
    calls = []

    def counted(d, method):
        calls.append((d.shape, method))
        return single_linkage(d, method)

    # threshold_snapshots imports linkage from its home module on each call
    single_linkage = scipy.cluster.hierarchy.linkage
    monkeypatch.setattr(scipy.cluster.hierarchy, "linkage", counted)
    X = rng.normal(size=(30, 2))
    assert threshold_snapshots(X, 0.1, ()) == ()
    assert calls == []
    threshold_snapshots(X, 0.1, [0.5, 1.0])
    # one tree on the condensed distances serves every threshold of one call
    assert calls == [((30 * 29 // 2,), "single")]
    threshold_snapshots(X, 0.1, [0.5])
    assert len(calls) == 2


def test_threshold_snapshots_match_connected_components_of_a_spectral_embedding():
    # the top-2 basis of a 400-node two-block sample, thresholds at the exact
    # weights of a minimum spanning tree and one ulp below each: every
    # component count steps there, and one rounding of a weight would move it
    model = two_block_sbm(400, 0.3, 0.1)
    X = eigendecompose(sample_adjacency(model, 7).A).top_k(2).U
    D = cdist(X, X)
    tree = minimum_spanning_tree(D)
    assert tree.nnz == 399  # no duplicated rows, so the sparse tree drops no edge
    weights = np.sort(tree.data)[::7]
    t_grid = np.concatenate([weights, np.nextafter(weights, 0.0)])
    eta = 1e-3

    def oracle(t):
        mask = D <= t
        return int(np.count_nonzero(np.triu(mask, 1))), int(
            connected_components(csr_matrix(mask), directed=False)[0]
        )

    for snap in threshold_snapshots(X, eta, t_grid):
        t = snap.t
        assert [(snap.edges_lower, snap.components_lower),
                (snap.edges_point, snap.components_point),
                (snap.edges_upper, snap.components_upper)] == [
            oracle(t - 2 * eta), oracle(t), oracle(t + 2 * eta)
        ], t
    below = threshold_snapshots(X, 0.0, np.nextafter(weights, 0.0))
    at = threshold_snapshots(X, 0.0, weights)
    assert all(a.components_point < b.components_point for a, b in zip(at, below))


def test_threshold_snapshots_refuse_overflowing_distances():
    # finite rows 1e308 apart: each squared difference overflows, so every
    # distance would read inf and G_t at t = 1e308 would lose its two edges
    X = np.array([[0.0], [1e308], [-1e308]])
    with pytest.raises(NonFiniteRows, match="overflows"):
        threshold_snapshots(X, 0.0, [1e308])


def test_threshold_snapshots_refuse_nan_or_negative_eta():
    # at t = 1 a NaN eta read edges_upper = 0 < edges_point = 1, and eta = -0.5
    # read 2 edges below and 0 above: the sandwich inverted
    X = np.array([[0.0], [1.0], [3.0]])
    for eta in (np.nan, -0.5):
        with pytest.raises(ValueError, match="^eta must be nonnegative"):
            threshold_snapshots(X, eta, [1.0])
    (snap,) = threshold_snapshots(X, 0.0, [1.0])
    assert snap.edges_lower == snap.edges_point == snap.edges_upper == 1


def test_threshold_snapshots_refuse_nonfinite_or_non_2d_rows():
    X = np.array([[0.0], [1.0], [3.0]])
    for bad in (np.nan, np.inf, -np.inf):
        holed = X.copy()
        holed[1, 0] = bad
        with pytest.raises(NonFiniteRows):
            threshold_snapshots(holed, 0.0, [1.0])
        with pytest.raises(NonFiniteRows):  # refused before an empty grid returns
            threshold_snapshots(holed, 0.0, [])
    for flat in (X[:, 0], X[None], np.float64(1.0)):
        with pytest.raises(ShapeMismatch):
            threshold_snapshots(flat, 0.0, [1.0])

"""Acceptance suite: every deliverable claim, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion. Monte Carlo criteria share module-scoped runs; every tolerance
is pinned here, none deferred.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from graphcert import (
    collision_instance,
    coverage_experiment,
    eigendecompose,
    grassmann_distance,
    katz_centrality,
    katz_modulus,
    nearest_center_round,
    ridge_risk,
    ridge_risk_bound,
    run_protocol,
    sample_adjacency,
    stability_certificate,
    tie_counterexample,
    top_m_selection,
    two_block_sbm,
    two_block_spectrum,
)
from graphcert.downstream import filtration_envelope, logistic_decisions, parity_gap, quadratic_loss
from graphcert.protocol import config_from_dict
from graphcert.simulation import CoverageConfig

OK = "ACCEPTANCE {} PASS: {}"


@pytest.fixture(scope="module")
def mc500(sbm200):
    """500 seeded replications of the worked instance at alpha = 0.1."""
    config = CoverageConfig(k=2, alpha=0.1, audit_inequalities=True)
    start = time.monotonic()
    result = coverage_experiment(sbm200, config, 500, base_seed=20240)
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def strong_cluster_run():
    """Strong-signal instance whose certified Hamming radius is below n.

    Mean-square clustering radii are >= n at any dense-eigh-tractable size
    under the explicit tail bound, so the uniform-recovery branch is used
    with a declared rowwise constant small enough that c_row * r < Delta/4.
    """
    model = two_block_sbm(600, 0.9, 0.3)
    config = CoverageConfig(
        k=2, alpha=0.1, claims=("cluster",), c_row=0.02, audit_inequalities=False
    )
    result = coverage_experiment(model, config, 200, base_seed=777)
    return result


def test_criterion_01_exact_spectrum(sbm200):
    start = time.monotonic()
    spec = two_block_spectrum(200, 0.3, 0.1)
    w = np.sort(np.linalg.eigvalsh(sbm200.P))[::-1]
    assert abs(w[0] - 39.7) < 1e-9
    assert abs(w[1] - 19.7) < 1e-9
    assert np.all(np.abs(w[2:] - (-0.3)) < 1e-9)  # bulk, multiplicity 198
    assert abs(min(w[0] - w[1], w[1] - w[2]) - 20.0) < 1e-9
    # the closed form matches the dense route identically
    assert abs(spec.lam1 - w[0]) < 1e-9
    assert abs(spec.lam2 - w[1]) < 1e-9
    assert abs(spec.lam_rest + 0.3) < 1e-12
    assert abs(spec.gap2 - 20.0) < 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(OK.format(1, f"exact spectrum 39.7/19.7/-0.3, gap 20 ({elapsed:.2f}s)"))


def test_criterion_02_certificates_exact(sbm200):
    from graphcert import expected_degree_bound

    # d_max exactly 397/10: rational identity plus float agreement
    m, p, q = Fraction(100), Fraction(3, 10), Fraction(1, 10)
    assert (m - 1) * p + m * q == Fraction(397, 10)
    assert abs(expected_degree_bound(sbm200) - 39.7) < 1e-12

    # margin 2/sqrt(200) read off the population basis rows
    basis = eigendecompose(sbm200.P).top_k(2)
    rows = np.unique(np.round(basis.U, 10), axis=0)
    assert rows.shape[0] == 2
    margin = float(np.linalg.norm(rows[0] - rows[1]))
    assert abs(margin - 2 / math.sqrt(200)) < 1e-9

    # Hamming radius formula is exactly ceil(3200 r^2) at Delta^2 = 4/n:
    # the identity is checked in exact rationals for a sweep of radii, and
    # the float code path is spot-checked away from integer boundaries
    # (where the two evaluation orders may legitimately straddle the ceil)
    for r_sym in (Fraction(7, 5), Fraction(1, 10), Fraction(2986, 1000), Fraction(0)):
        assert 16 * (2 * 2 * r_sym**2) / Fraction(4, 200) == 3200 * r_sym**2
    delta = 2 / math.sqrt(200)
    for r in (0.123, 0.47, 1.03, 2.986):
        lhs = math.ceil(16 * (2 * 2 * r * r) / delta**2)
        assert lhs == math.ceil(3200 * r * r)
    print(OK.format(2, "d_max = 397/10, margin 2/sqrt(200), radius ceil(3200 r^2)"))


def test_criterion_03_katz_constants(sbm200):
    start = time.monotonic()
    beta = 5 / 794
    rho = float(np.max(np.abs(np.linalg.eigvalsh(sbm200.P))))
    assert abs(beta * rho - 0.25) < 1e-12
    assert katz_modulus(beta) == 10 / 397

    scores = katz_centrality(eigendecompose(sbm200.P), beta)
    acc = np.zeros(200)
    term = np.ones(200)
    for _ in range(200):
        term = beta * (sbm200.P @ term)
        acc += term
    assert np.max(np.abs(scores - acc)) < 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(OK.format(3, f"beta rho = 1/4, L = 10/397, Neumann match ({elapsed:.2f}s)"))


def test_criterion_04_deviation_coverage(mc500):
    result, elapsed = mc500
    claim = result.claims["deviation"]
    threshold = 0.9 - 3 * math.sqrt(0.09 / 500)
    assert claim.coverage >= threshold
    assert elapsed < 60.0
    print(
        OK.format(
            4,
            f"deviation coverage {claim.coverage:.3f} >= {threshold:.3f} "
            f"(conservative, run {elapsed:.1f}s)",
        )
    )


def test_criterion_05_davis_kahan_audit(mc500):
    result, _ = mc500
    audit = result.audits["davis_kahan"]
    assert audit.trials == 500
    assert audit.violations == 0
    # every other implemented inequality is audited on the same samples
    for name, other in result.audits.items():
        assert other.violations == 0, name
    print(OK.format(5, f"Davis-Kahan audit: 0 violations in {audit.trials} samples"))


def test_criterion_06_subspace_and_band_coverage(mc500):
    result, elapsed = mc500
    threshold = 0.9 - 3 * math.sqrt(0.09 / 500)
    sub = result.claims["subspace"]
    cent = result.claims["centrality"]
    assert sub.coverage >= threshold
    assert cent.coverage >= threshold
    # the worked-instance radius is valid but vacuous, and says so
    assert sub.extra["radius"] >= 1.0
    assert sub.extra["informative"] is False
    assert elapsed < 120.0
    print(
        OK.format(
            6,
            f"subspace coverage {sub.coverage:.3f}, band coverage "
            f"{cent.coverage:.3f}, radius {sub.extra['radius']:.2f} flagged vacuous",
        )
    )


def test_criterion_07_clustering(strong_cluster_run):
    result = strong_cluster_run
    claim = result.claims["cluster"]
    threshold = 0.9 - 3 * math.sqrt(0.09 / 200)
    assert claim.evaluated and not claim.refused
    assert claim.extra["hamming_radius"] < 600  # nonvacuous by construction
    assert claim.extra["route"] == "uniform_rowwise"
    assert claim.coverage >= threshold

    # Lemma-style uniform branch: row error < Delta/4 forces exact recovery
    rng = np.random.default_rng(99)
    centers = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.5]])
    delta = min(
        np.linalg.norm(centers[a] - centers[b]) for a in range(3) for b in range(a)
    )
    n = 20
    for _ in range(10_000):
        truth = rng.integers(0, 3, size=n)
        noise = rng.normal(size=(n, 2))
        noise *= (delta / 4 * 0.999) * rng.uniform(size=(n, 1)) / np.linalg.norm(
            noise, axis=1, keepdims=True
        )
        labels = nearest_center_round(centers[truth] + noise, centers)
        assert np.array_equal(labels, truth)
    print(
        OK.format(
            7,
            f"cluster coverage {claim.coverage:.3f} at radius "
            f"{claim.extra['hamming_radius']} < n; uniform branch exact in 1e4 trials",
        )
    )


def test_criterion_08_stability_and_ties():
    start = time.monotonic()
    rng = np.random.default_rng(4242)
    certified_count = 0
    for _ in range(8):
        n = 30
        M = rng.normal(size=(n, n))
        M = (M + M.T) / 2
        rho = float(np.max(np.abs(np.linalg.eigvalsh(M))))
        beta = 1 / (4 * rho)
        L = katz_modulus(beta)
        scores = katz_centrality(eigendecompose(M), beta)
        sel = top_m_selection(scores, 3)
        if not sel.unique:
            continue
        q = min(0.8 * sel.margin / (2 * L), 0.5 * rho)
        cert = stability_certificate(scores, 3, L * q)
        if not cert.certified:
            continue
        certified_count += 1
        for _ in range(1000):
            E = rng.normal(size=(n, n))
            E = (E + E.T) / 2
            E *= q * rng.uniform() / np.linalg.norm(E, 2)
            perturbed = katz_centrality(eigendecompose(M + E), beta)
            sel_p = top_m_selection(perturbed, 3)
            assert sel_p.unique and sel_p.sets == (cert.selected_set,)
    assert certified_count >= 3

    for eps in (1e-1, 1e-3, 1e-6):
        x = np.array([2.0, 2.0, 1.0])
        flipped = tie_counterexample(x, 1, eps)
        sel = top_m_selection(flipped, 1)
        assert sel.unique and sel.sets == ((1,),)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        OK.format(
            8,
            f"{certified_count} certified instances stable under 1000 "
            f"perturbations each; ties flip at every eps ({elapsed:.1f}s)",
        )
    )


def test_criterion_09_downstream_inequalities():
    start = time.monotonic()
    rng = np.random.default_rng(31337)

    # Cor-style ridge bound
    n = 12
    for _ in range(1000):
        Q1, _ = np.linalg.qr(rng.normal(size=(n, 2)))
        Q2, _ = np.linalg.qr(rng.normal(size=(n, 2)))
        from graphcert import OrthonormalBasis

        U = OrthonormalBasis(U=Q1[:, :2])
        V = OrthonormalBasis(U=Q2[:, :2])
        y = rng.normal(size=n)
        lam = float(rng.uniform(0.1, 3))
        d = grassmann_distance(U, V)
        gap = abs(ridge_risk(U, y, lam) - ridge_risk(V, y, lam))
        assert gap <= ridge_risk_bound(y, lam, d, n) + 1e-10

    # feasibility transfer under adversarial infinity-ball perturbations
    n = 30
    tau, r, eps = 0.5, 0.15, 0.4
    x_hat = rng.normal(size=n)
    s = (np.arange(n) % 2).astype(int)
    passing = []
    for t0 in np.linspace(-2, 2, 7):
        for t1 in np.linspace(-2, 2, 7):
            theta = np.array([t0, t1])
            if parity_gap(logistic_decisions(x_hat, s, tau, theta), s) <= eps - r / tau:
                passing.append(theta)
    assert passing
    for _ in range(1000):
        x_star = x_hat + rng.uniform(-r, r, size=n)
        for theta in passing:
            assert parity_gap(logistic_decisions(x_star, s, tau, theta), s) <= eps + 1e-9

    # trade-off bounds
    y01 = rng.uniform(size=n)
    for _ in range(1000):
        t0 = rng.normal()
        shift = float(rng.uniform(0, 1.5))
        d_a = logistic_decisions(x_hat, s, tau, np.array([t0, t0]))
        d_b = logistic_decisions(x_hat, s, tau, np.array([t0 + shift, t0 + shift]))
        gap_loss = quadratic_loss(d_a, y01) - quadratic_loss(d_b, y01)
        assert gap_loss <= 2 / math.sqrt(n) * np.linalg.norm(d_a - d_b) + 1e-12
        assert gap_loss <= shift / (2 * tau) + 1e-12

    # filtration sandwich
    for _ in range(1000):
        X = rng.normal(size=(10, 2))
        Y = X + rng.normal(scale=0.15, size=(10, 2))
        report = filtration_envelope(X, Y, [0.5, 1.5])
        assert report.d_filt <= 2 * report.eta + 1e-12
        for snap in report.snapshots:
            assert snap.lower_included and snap.upper_included
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(OK.format(9, f"ridge/fairness/trade-off/filtration: 0 violations ({elapsed:.1f}s)"))


def test_criterion_10_protocol_gating():
    import itertools

    start = time.monotonic()
    model = two_block_sbm(40, 0.8, 0.2)
    A = sample_adjacency(model, 5)
    n = 40
    spectrum = two_block_spectrum(40, 0.8, 0.2)

    def make_config(d1, d2, d3, d4):
        return config_from_dict(
            {
                "k": 2,
                "alpha": 0.1,
                "envelope": {
                    "d_max": spectrum.lam1 if d1 else None,
                    "gap": spectrum.gap2 if d2 else None,
                },
                "centrality": {"kind": "katz", "beta": 0.002, "domain_certified": bool(d3)},
                "clustering": {"delta": 2 / math.sqrt(n) if d4 else None, "c_row": 0.05},
                "selection_m": 3,
                "fairness": {
                    "groups": [i % 2 for i in range(n)],
                    "targets": [0.5] * n,
                    "tau": 0.5,
                    "epsilon": 1.0,
                },
                "filtration": {"t_grid": [0.1, 0.3]},
            }
        )

    prereqs = {
        "subspace": ("D1", "D2"),
        "centrality_bands": ("D1", "D3"),
        "stability": ("D1", "D3"),
        "cluster": ("D1", "D2", "D4"),
        "fairness": ("D1", "D3"),
        "filtration": ("D1", "D2"),
    }
    for bits in itertools.product([False, True], repeat=4):
        report = run_protocol(A, make_config(*bits))
        flags = {name: fl.passed for name, fl in report.flags.items()}
        assert flags == dict(zip(("D1", "D2", "D3", "D4"), bits))
        for output, reqs in prereqs.items():
            assert (output in report.outputs) == all(flags[p] for p in reqs)

    # collision instance forces a "no certificate" refusal
    cmodel, _, _ = collision_instance(12, 2)
    cA = sample_adjacency(cmodel, 6)
    from graphcert.protocol import ProtocolConfig
    from graphcert.models import Envelope

    creport = run_protocol(
        cA,
        ProtocolConfig(
            k=2, alpha=0.1, envelope=Envelope(d_max=10.0), parametric_spec=cmodel.spec
        ),
    )
    assert not creport.flags["D2"].passed
    assert any(
        r["output"] == "subspace" and r["reason"] == "no_gap_certificate"
        for r in creport.refusals
    )

    # byte-identical reports under fixed inputs
    cfg = make_config(True, True, True, True)
    assert run_protocol(A, cfg).to_json() == run_protocol(A, cfg).to_json()
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(OK.format(10, f"gating sound over 16 combos, refusal + determinism ({elapsed:.1f}s)"))

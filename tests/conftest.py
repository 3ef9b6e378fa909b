import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, settings
from scipy.spatial.distance import cdist

import graphcert
from graphcert import (
    OrthonormalBasis,
    SBMSpec,
    build_probability_matrix,
    two_block_sbm,
)

# Property tests draw the same examples on every run and have no deadline,
# so tier-1 results depend neither on the example database nor on load.
settings.register_profile(
    "graphcert", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("graphcert")


@pytest.fixture(scope="session")
def sbm200():
    """The worked equal-two-block instance: n=200, within 0.3, between 0.1."""
    return two_block_sbm(200, 0.3, 0.1)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def random_orthonormal(rng, n, k):
    M = rng.normal(size=(n, k))
    Q, _ = np.linalg.qr(M)
    return Q[:, :k]


def random_orthogonal(rng, k):
    Q, R = np.linalg.qr(rng.normal(size=(k, k)))
    return Q * np.sign(np.diag(R))


def filtration_sandwich(X, Y, t_grid):
    """The two-embedding filtration sandwich, checked on distance masks.

    Returns eta, the largest rowwise distance between X and Y; d_filt, the
    largest entry of |D(X) - D(Y)|; and per threshold t the pair (G_{t-2eta}(X)
    within G_t(Y), G_t(Y) within G_{t+2eta}(X)) as edge-set inclusions.
    """
    eta = float(np.max(np.linalg.norm(X - Y, axis=1)))
    DX, DY = cdist(X, X), cdist(Y, Y)
    d_filt = float(np.max(np.abs(DX - DY)))
    included = [
        (bool(np.all((DY <= t)[DX <= t - 2 * eta])), bool(np.all((DX <= t + 2 * eta)[DY <= t])))
        for t in t_grid
    ]
    return eta, d_filt, included


# ---------------------------------------------------------------------------
# the constructions behind the refusals: no certificate exists on either one

def tie_counterexample(x, m, eps):
    """Flip a tied top-m selection of ``x`` by a perturbation of size eps.

    ``x`` must have at least two admissible top-m sets. The scores tied at
    the threshold are split by +-eps, the last tied indices pushed up, so
    the perturbed vector has a unique top-m set that excludes a previously
    admissible member: the selection is unstable for every eps > 0.
    """
    x = np.asarray(x, dtype=float)
    t = x[np.argsort(-x, kind="stable")[m - 1]]
    tied = np.flatnonzero(x == t)
    slots = m - np.count_nonzero(x > t)  # places in the top m left to the tied
    promote = tied[-slots:]
    x_new = x.copy()
    x_new[promote] += eps
    x_new[np.setdiff1d(tied, promote)] -= eps
    return x_new


def collision_instance(n, k, delta=0.0):
    """A valid SBM whose P has an eigenvalue collision at the cutoff k.

    k+1 identical diagonal blocks of b = n // (k+1) nodes at probability
    1/2 give a top eigenvalue of multiplicity k+1 (leftover nodes form an
    isolated block), so lambda_k = lambda_{k+1} and two admissible top-k
    subspaces, blocks 1..k and blocks 2..k+1, sit at Grassmann distance 1:
    any region covering both is vacuous. A positive ``delta`` (at most 1/k)
    staggers the block intensities as 0.5 (1 + delta (k - j)), which
    breaks the collision with gap_k proportional to delta. Needs
    n >= 2k + 2. Returns (model, U_a, U_b).
    """
    b = n // (k + 1)
    leftover = n - b * (k + 1)
    K = k + 1 + (1 if leftover else 0)
    B = np.zeros((K, K))
    for j in range(k + 1):
        B[j, j] = 0.5 * (1.0 + delta * (k - j))
    labels = np.concatenate([np.repeat(np.arange(k + 1), b), np.full(leftover, k + 1)])
    model = build_probability_matrix(SBMSpec(labels=labels, B=B))

    def block_basis(first):
        U = np.zeros((n, k))
        for col, j in enumerate(range(first, first + k)):
            U[j * b : (j + 1) * b, col] = 1.0 / math.sqrt(b)
        return OrthonormalBasis(U=U)

    return model, block_basis(0), block_basis(1)


class EigCalls(dict):
    """Eigensolver call counts by kind, with the ``scipy.linalg.eigh_tridiagonal``
    reads listed in ``tridiagonal`` as ``(select, eigvals_only)`` pairs, in
    call order: ``select`` is "i" by index, "v" by value range, "a" for all."""

    def __init__(self, **counts):
        super().__init__(**counts)
        self.tridiagonal = []


@pytest.fixture()
def eig_calls(monkeypatch):
    """Counts of eigensolver calls in the test by kind: ``scipy.linalg.eigh``
    for a subset of the eigenpairs, the full decomposition or the eigenvalues
    only, and Householder tridiagonal reductions (``scipy.linalg.lapack.dsytrd``);
    the subset reads on a reduction's tridiagonal are in ``tridiagonal``
    (:class:`EigCalls`)."""
    calls = EigCalls(subset=0, full=0, values=0, reduction=0)
    original_eigh = scipy.linalg.eigh
    original_dsytrd = scipy.linalg.lapack.dsytrd
    original_tridiagonal = scipy.linalg.eigh_tridiagonal

    def counted_eigh(*args, **kwargs):
        if kwargs.get("eigvals_only"):
            calls["values"] += 1
        elif kwargs.get("subset_by_index") is not None:
            calls["subset"] += 1
        else:
            calls["full"] += 1
        return original_eigh(*args, **kwargs)

    def counted_dsytrd(*args, **kwargs):
        calls["reduction"] += 1
        return original_dsytrd(*args, **kwargs)

    def counted_tridiagonal(d, e, eigvals_only=False, select="a", **kwargs):
        calls.tridiagonal.append((select, eigvals_only))
        return original_tridiagonal(d, e, eigvals_only=eigvals_only, select=select, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(scipy.linalg.lapack, "dsytrd", counted_dsytrd)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counted_tridiagonal)
    return calls


def with_extreme_floats(test):
    """Hypothesis examples for ``value``: NaN, +-inf and the finite extremes
    of a double (subnormal, smallest normal order, largest order), both signs."""
    for value in (math.nan, math.inf, 5e-324, 1e-308, 1e308):
        test = example(value=value)(example(value=-value)(test))
    return test


def non_finite_reals(obj, path=""):
    """Paths of the NaN and +-inf floats in a nested report document."""
    if isinstance(obj, dict):
        return [p for key, val in obj.items() for p in non_finite_reals(val, f"{path}.{key}")]
    if isinstance(obj, (list, tuple)):
        return [p for i, val in enumerate(obj) for p in non_finite_reals(val, f"{path}.{i}")]
    if isinstance(obj, np.ndarray):
        return non_finite_reals(obj.tolist(), path)
    if isinstance(obj, float) and not math.isfinite(obj):
        return [path]
    return []


# ---------------------------------------------------------------------------
# malformed declarations: each case edits a valid document at a key path,
# setting a value or dropping the key

DROP = object()


def full_config_doc(n=40):
    """A valid config document for an n-node graph with every block declared."""
    c = 1.0 / math.sqrt(n)
    return {
        "k": 2,
        "alpha": 0.05,
        "envelope": {"d_max": 30.0, "gap": 10.0},
        "parametric_spec": {"type": "sbm", "labels": [2 * i // n for i in range(n)],
                            "B": [[0.5, 0.1], [0.1, 0.5]]},
        "usvt": {"threshold_scale": 2.02, "eps_p": 1.0},
        "centrality": {"kind": "katz", "beta": 0.01, "domain_certified": True},
        "clustering": {"delta": 2.0 * c, "centers": [[c, c], [c, -c]], "c_row": 0.01},
        "selection_m": 3,
        "fairness": {"groups": [i % 2 for i in range(n)], "targets": [0.5] * n,
                     "tau": 1.0, "epsilon": 0.9},
        "filtration": {"t_grid": [0.05, 0.1, 0.2]},
    }


def model_doc(kind="sbm", n=40):
    """A valid model document of each spec type, two blocks of n/2 nodes."""
    labels = [2 * i // n for i in range(n)]
    B = [[0.5, 0.1], [0.1, 0.5]]
    return {
        "sbm": {"type": "sbm", "labels": labels, "B": B},
        "dcsbm": {"type": "dcsbm", "theta": [1.0 - i / (2 * n) for i in range(n)],
                  "labels": labels, "B": B},
        "rdpg": {"type": "rdpg", "X": [[0.6, 0.3 - 0.6 * g] for g in labels],
                 "signature": [1, 1]},
    }[kind]


_CONFIG_BLOCKS = ("envelope", "parametric_spec", "usvt", "centrality", "clustering",
                  "fairness", "filtration")

MALFORMED_CONFIGS = {
    "centrality-without-kind": (("centrality", "kind"), DROP),
    "fairness-without-epsilon": (("fairness", "epsilon"), DROP),
    "filtration-without-t_grid": (("filtration", "t_grid"), DROP),
    "sbm-spec-without-labels": (("parametric_spec", "labels"), DROP),
    "config-without-k": (("k",), DROP),
    "unknown-key-in-config": (("betta",), 0.1),
    **{f"unknown-key-in-{b}": ((b, "betta"), 0.1) for b in _CONFIG_BLOCKS},
    "string-d_max": (("envelope", "d_max"), "10"),
    "scalar-t_grid": (("filtration", "t_grid"), 5),
    "fractional-k": (("k",), 2.7),
    "boolean-k": (("k",), True),
    "fractional-selection_m": (("selection_m",), 5.5),
    "string-domain_certified": (("centrality", "domain_certified"), "false"),
    "negative-usvt-eps_p": (("usvt", "eps_p"), -1.0),
    "negative-usvt-threshold_scale": (("usvt", "threshold_scale"), -1.0),
    "zero-usvt-threshold_scale": (("usvt", "threshold_scale"), 0.0),
    "negative-clustering-delta": (("clustering", "delta"), -0.3),
    "negative-clustering-c_row": (("clustering", "c_row"), -1.0),
    "negative-centrality-gamma": (("centrality", "gamma"), -1.0),
    "zero-selection_m": (("selection_m",), 0),
    "one-clustering-center": (("clustering", "centers"), [[0.1, 0.1]]),
    "narrow-clustering-centers": (("clustering", "centers"), [[0.3], [-0.3]]),
    "non-binary-fairness-groups": (("fairness", "groups"), [0, 5] * 20),
    "one-fairness-group": (("fairness", "groups"), [0] * 40),
    "short-fairness-groups": (("fairness", "groups"), [0, 1] * 10),
    "short-fairness-targets": (("fairness", "targets"), [0.5] * 20),
    **{f"{b}-as-a-list": ((b,), [1.0]) for b in _CONFIG_BLOCKS},
}

# name -> (model type, path, value): a model document of that type with the
# value at path replaced; certificates belong to the config, not the model
MALFORMED_MODELS = {
    "sbm-without-labels": ("sbm", ("labels",), DROP),
    "unknown-key-in-model": ("sbm", ("betta",), 0.1),
    "unknown-model-type": ("sbm", ("type",), "sbn"),
    "envelope-key": ("sbm", ("envelope",), {"d_max": 1e6, "gap": 1e-3}),
    "fractional-labels": ("sbm", ("labels",), [0.9, 1.7] + [0, 1] * 19),
    "boolean-labels": ("sbm", ("labels",), [True, False] * 20),
    "fractional-dcsbm-labels": ("dcsbm", ("labels",), [0.5, 1.2] + [0, 1] * 19),
    "fractional-signature": ("rdpg", ("signature",), [2.9, 0]),
}


def malformed(doc, path, value):
    """``doc`` with the value at ``path`` replaced, or dropped for DROP."""
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return doc


def fresh_python(*args, env=None):
    """Run ``python *args`` in a new interpreter that imports this graphcert,
    with the variables of ``env`` set in its environment only; returns the
    completed process, output as text."""
    src = str(Path(graphcert.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **(env or {})}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )

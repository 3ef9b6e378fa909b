import math

import numpy as np
import pytest
from hypothesis import example, settings

from graphcert import two_block_sbm

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


@pytest.fixture()
def eig_calls(monkeypatch):
    """Counts of np.linalg.eigh and np.linalg.eigvalsh calls in the test."""
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
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

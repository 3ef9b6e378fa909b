import numpy as np
import pytest

from graphcert import two_block_sbm


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

"""Trajectory-sharing K-means against the restart loop it replaced.

``_restart_loop`` is the earlier ``inference.kmeans_labels``, kept here as a
test oracle: each of the ``KMEANS_RESTARTS`` restarts runs farthest-point
init and Lloyd's algorithm on its own. For every input the two give the same
labels, bytes and dtype. The generated inputs lean on exact ties: integer
grids tie distances, and duplicated rows give coincident init centers and
empty clusters.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphcert import NonFiniteRows, eigendecompose, sample_adjacency, two_block_sbm
from graphcert.inference import KMEANS_RESTARTS, kmeans_labels


def _squared_distances(rows, centers):
    return ((rows[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _farthest_point_init(rows, K, first):
    chosen = [min(first, rows.shape[0] - 1)]
    for _ in range(K - 1):
        chosen.append(int(np.argmax(_squared_distances(rows, rows[chosen]).min(axis=1))))
    return rows[chosen]


def _lloyd(rows, centers, iters=100):
    K = centers.shape[0]
    labels = None
    for _ in range(iters):
        new = np.argmin(_squared_distances(rows, centers), axis=1)
        if labels is not None and np.array_equal(new, labels):
            break
        labels = new
        for a in range(K):
            mask = labels == a
            if mask.any():
                centers[a] = rows[mask].mean(axis=0)
    d2 = _squared_distances(rows, centers)
    cost = float(d2[np.arange(rows.shape[0]), labels].sum())
    return labels, cost


def _restart_loop(rows, K):
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    best_labels, best_cost = None, np.inf
    for r in range(KMEANS_RESTARTS):
        centers = _farthest_point_init(rows, K, first=(r * n) // KMEANS_RESTARTS)
        labels, cost = _lloyd(rows, centers)
        if cost < best_cost - 1e-15:
            best_labels, best_cost = labels, cost
    return best_labels


def _assert_same_labels(rows, K):
    want = _restart_loop(rows, K)
    got = kmeans_labels(rows, K)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@st.composite
def _rows_and_k(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["real", "grid", "duplicated"]))
    if kind == "real":
        real = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
        rows = np.array(draw(st.lists(st.lists(real, min_size=d, max_size=d),
                                      min_size=n, max_size=n)))
    else:
        point = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
        if kind == "grid":
            rows = np.array(draw(st.lists(point, min_size=n, max_size=n)), dtype=float)
        else:
            distinct = draw(st.lists(point, min_size=1, max_size=max(1, n // 3)))
            picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
            rows = np.array([distinct[i] for i in picks], dtype=float)
    K = draw(st.integers(1, min(n, 6)))
    return rows, K


@settings(max_examples=600)
@given(_rows_and_k())
# two labelings whose costs agree to within 1e-15 but not exactly: the
# earliest restart wins, not the one whose cost is a few ulps lower
@example(case=(np.array([[0.0], [0.0], [0.1], [0.2], [0.2]]), 2))
def test_kmeans_matches_restart_loop(case):
    _assert_same_labels(*case)


def _embedding(n, seed, k):
    A = sample_adjacency(two_block_sbm(n, 0.3, 0.1), seed)
    return eigendecompose(A.A).top_k(k).U


@pytest.mark.parametrize("n, seed, k, K", [
    (200, 1, 2, 2),    # the worked instance
    (2000, 1, 2, 2),   # a large two-block embedding
    (600, 2, 2, 3),    # three clusters on two-block rows
    (600, 1, 3, 3),    # three clusters in three dimensions: no restarts merge
])
def test_kmeans_matches_restart_loop_on_sbm_embeddings(n, seed, k, K):
    _assert_same_labels(_embedding(n, seed, k), K)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_kmeans_refuses_non_finite_rows(value):
    rows = np.arange(12, dtype=float).reshape(6, 2)
    rows[3, 1] = value
    with pytest.raises(NonFiniteRows, match="NaN or an infinity"):
        kmeans_labels(rows, 2)
    with pytest.raises(NonFiniteRows):
        kmeans_labels(np.full((6, 2), value), 2)

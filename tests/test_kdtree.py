import gc
import tracemalloc

import numpy as np
import pytest

from gsaudio.errors import ContractViolation
from gsaudio.kdtree import (KDTree, brute_force_count_within, brute_force_knn, count_within, knn,
                            nearest_distances, squared_distances)
from gsaudio.scene import vicinity

N_LARGE = 32768  # the render-32768 model's point count


def brute_counts(points, radius):
    return np.array([brute_force_count_within(points, p, radius) for p in points])


@pytest.mark.parametrize("trial", range(10))
def test_knn_matches_brute_force(trial):
    rng = np.random.default_rng(trial)
    n = int(rng.integers(40, 400))
    pts = rng.uniform(0, 5, size=(n, 3))
    tree = KDTree(pts)
    for _ in range(5):
        center = rng.uniform(-1, 6, size=3)
        k = int(rng.integers(1, n + 1))
        assert np.array_equal(tree.query_knn(center, k), brute_force_knn(pts, center, k))


def test_knn_tie_break_on_duplicates():
    pts = np.array([[1.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [0.5, 0, 0]])
    tree = KDTree(pts)
    got = tree.query_knn(np.zeros(3), 3)
    assert np.array_equal(got, brute_force_knn(pts, np.zeros(3), 3))
    assert np.array_equal(got, [0, 1, 4])


def test_knn_small_k_matches_brute_force():
    rng = np.random.default_rng(42)
    pts = rng.standard_normal((1000, 3))
    tree = KDTree(pts)
    for _ in range(20):
        center = rng.standard_normal(3)
        assert np.array_equal(tree.query_knn(center, 5), brute_force_knn(pts, center, 5))


def test_knn_query_leaves_no_reference_cycles():
    rng = np.random.default_rng(43)
    tree = KDTree(rng.standard_normal((2000, 3)))
    gc.collect()
    gc.disable()
    try:
        tree.query_knn(np.zeros(3), 50)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def tied_cloud():
    """32768 points with coordinates rounded to 0.1 in a 3 m cube, and a
    centre on the same grid: many points share a squared distance, and some
    points coincide."""
    rng = np.random.default_rng(22)
    return np.round(rng.uniform(0.0, 3.0, (N_LARGE, 3)), 1), np.array([1.5, 1.2, 0.7])


def test_squared_distances_have_the_bits_of_the_row_sum(tied_cloud):
    points, center = tied_cloud
    got = squared_distances(points.T, center[:, None])
    assert got.shape == (1, N_LARGE)
    assert got[0].tobytes() == ((points - center) ** 2).sum(axis=1).tobytes()
    rows = points[:64]
    block = squared_distances(points.T.copy(), rows.T.copy())
    want = np.stack([((points - row) ** 2).sum(axis=1) for row in rows])
    assert block.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 10, 4916, N_LARGE])
def test_knn_and_vicinity_match_brute_force_on_ties_at_32768(tied_cloud, k):
    points, center = tied_cloud
    want = brute_force_knn(points, center, k)
    d2 = ((points - center) ** 2).sum(axis=1)
    kth = np.sort(d2)[k - 1]
    if k < N_LARGE:
        # the k-th distance is shared, so the selection must drop surplus ties
        assert np.count_nonzero(d2 <= kth) > k
    assert np.array_equal(knn(points, center, k), want)
    # the midpoint percentile of k, so ceil(percentile% * n) == k
    assert np.array_equal(vicinity(points, center, 100.0 * (k - 0.5) / N_LARGE), want)


def test_count_within_and_nearest_distances_match_references_at_32768(tied_cloud):
    points, _ = tied_cloud
    rows = np.random.default_rng(23).choice(N_LARGE, size=200, replace=False)
    for radius in (0.1, 0.35):
        counts = count_within(points, radius)
        assert np.array_equal(counts[rows],
                              [brute_force_count_within(points, points[i], radius) for i in rows])
    want = [np.sqrt(np.partition(((points - points[i]) ** 2).sum(axis=1), 1)[1]) for i in rows]
    got = nearest_distances(points, rows)
    assert got.tobytes() == np.array(want).tobytes()
    assert np.any(got == 0.0)  # coincident points read 0.0


@pytest.mark.parametrize("trial", range(10))
def test_count_within_matches_brute_force(trial):
    rng = np.random.default_rng(100 + trial)
    pts = rng.uniform(0, 1, size=(int(rng.integers(30, 300)), 3))
    for radius in (0.05, 0.2, 0.7):
        assert np.array_equal(count_within(pts, radius), brute_counts(pts, radius))


def test_count_within_is_strict():
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(count_within(pts, 1.0), [1, 1])  # the point at distance 1 excluded
    assert np.array_equal(count_within(pts, 1.0 + 1e-9), [2, 2])


def test_count_within_memory_is_bounded():
    # radius 10 m puts every point in every window: a single (N, N) block
    # would take 512 MB
    points = np.random.default_rng(3).uniform(0.0, [6.0, 4.0, 3.0], (8192, 3))
    tracemalloc.start()
    try:
        counts = count_within(points, 10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(counts == 8192)
    assert peak < 2 * 2 ** 20


def test_invalid_inputs_rejected():
    with pytest.raises(ContractViolation):
        KDTree(np.zeros((0, 3)))
    tree = KDTree(np.random.default_rng(0).standard_normal((10, 3)))
    with pytest.raises(ContractViolation):
        tree.query_knn(np.zeros(3), 0)
    with pytest.raises(ContractViolation):
        tree.query_knn(np.zeros(3), 11)

import gc
import tracemalloc

import numpy as np
import pytest

from gsaudio.errors import ContractViolation
from gsaudio.kdtree import KDTree, brute_force_count_within, brute_force_knn, count_within


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

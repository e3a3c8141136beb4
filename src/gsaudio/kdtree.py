"""Exact nearest-neighbour selection and radius counts over point clouds.

k-NN is one numpy selection: squared distances, ``np.partition`` for the
k-th smallest, then every strictly closer point plus the lowest-indexed
points at exactly that distance. It returns the same indices as the lexsort
reference ``brute_force_knn`` bit for bit, because both compute the same
squared distances and order candidates by (distance^2, index).

The median-split ``KDTree`` serves radius counts (outlier pruning).
``KDTree.query_knn`` is a thin wrapper over the selection, kept only while
the benchmark still traces it.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

_LEAF_SIZE = 32


def brute_force_knn(points, center, k):
    """Indices of the k nearest points, ties broken by lower index."""
    d2 = ((points - center) ** 2).sum(axis=1)
    order = np.lexsort((np.arange(len(points)), d2))
    return np.sort(order[:k])


def knn(points, center, k):
    """Indices (ascending) of the k nearest points, ties broken by lower
    index: the set ``brute_force_knn`` returns, in O(N) instead of a sort."""
    d2 = ((points - center) ** 2).sum(axis=1)
    kth = np.partition(d2, k - 1)[k - 1]
    closer = np.flatnonzero(d2 < kth)
    ties = np.flatnonzero(d2 == kth)[:k - closer.size]
    return np.sort(np.concatenate([closer, ties]))


def brute_force_count_within(points, center, radius):
    """Number of points strictly inside ``radius`` of ``center``."""
    d2 = ((points - center) ** 2).sum(axis=1)
    return int(np.count_nonzero(d2 < radius * radius))


class _Node:
    __slots__ = ("axis", "split", "left", "right", "indices")

    def __init__(self, axis=None, split=None, left=None, right=None, indices=None):
        self.axis = axis
        self.split = split
        self.left = left
        self.right = right
        self.indices = indices


class KDTree:
    def __init__(self, points, leaf_size=_LEAF_SIZE):
        self.points = np.asarray(points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[0] == 0:
            raise ContractViolation("k-d tree needs a non-empty (N, d) array")
        self.leaf_size = int(leaf_size)
        self._root = self._build(np.arange(self.points.shape[0]), 0)

    def _build(self, indices, depth):
        if indices.size <= self.leaf_size:
            return _Node(indices=np.sort(indices))
        axis = depth % self.points.shape[1]
        coords = self.points[indices, axis]
        order = np.argsort(coords, kind="stable")
        mid = indices.size // 2
        split_val = coords[order[mid]]
        left = self._build(indices[order[:mid]], depth + 1)
        right = self._build(indices[order[mid:]], depth + 1)
        return _Node(axis=axis, split=float(split_val), left=left, right=right)

    def query_knn(self, center, k):
        """Indices (ascending) of the k nearest points to ``center``."""
        center = np.asarray(center, dtype=np.float64)
        n = self.points.shape[0]
        if not 1 <= k <= n:
            raise ContractViolation(f"k={k} out of range for {n} points")
        return knn(self.points, center, k)

    def count_within(self, center, radius):
        """Number of points with distance strictly below ``radius``."""
        center = np.asarray(center, dtype=np.float64)
        r2 = radius * radius
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.indices is not None:
                d2 = ((self.points[node.indices] - center) ** 2).sum(axis=1)
                count += int(np.count_nonzero(d2 < r2))
                continue
            diff = center[node.axis] - node.split
            # points on the far side are at least |diff| away; a strict
            # inequality query can skip them when diff^2 >= r^2
            if diff <= 0:
                stack.append(node.left)
                if diff * diff < r2:
                    stack.append(node.right)
            else:
                stack.append(node.right)
                if diff * diff < r2:
                    stack.append(node.left)
        return count

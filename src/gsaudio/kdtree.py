"""Median-split k-d tree for exact k-nearest-neighbor and radius-count
queries over small point clouds.

Ties are broken by lower point index, matching the brute-force reference
selection bit for bit: both paths compute the same squared distances and
order candidates lexicographically by (distance^2, index). query_knn falls
back to the brute-force selection when k is a large fraction of N, where
tree pruning cannot win; results are identical either way.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import ContractViolation

_LEAF_SIZE = 32


def brute_force_knn(points, center, k):
    """Indices of the k nearest points, ties broken by lower index."""
    d2 = ((points - center) ** 2).sum(axis=1)
    order = np.lexsort((np.arange(len(points)), d2))
    return np.sort(order[:k])


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
        if 4 * k >= n:
            return brute_force_knn(self.points, center, k)
        # bounded max-heap keyed lexicographically by (d2, index); Python's
        # min-heap holds negated keys so the worst candidate sits on top
        heap = []
        # depth-first, near side first; a far side carries its squared
        # distance bound and is tested when popped, after the near subtree
        stack = [(self._root, 0.0)]
        while stack:
            node, bound = stack.pop()
            if len(heap) == k and bound > -heap[0][0]:
                continue
            if node.indices is not None:
                pts = self.points[node.indices]
                d2 = ((pts - center) ** 2).sum(axis=1)
                for dist, idx in zip(d2, node.indices):
                    key = (-dist, -int(idx))
                    if len(heap) < k:
                        heapq.heappush(heap, key)
                    elif key > heap[0]:
                        heapq.heapreplace(heap, key)
                continue
            diff = center[node.axis] - node.split
            near, far = (node.left, node.right) if diff <= 0 else (node.right, node.left)
            stack.append((far, diff * diff))
            stack.append((near, 0.0))
        return np.sort(np.array([-i for _, i in heap], dtype=np.int64))

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

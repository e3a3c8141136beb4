"""Exact neighbour queries over point clouds: k-nearest selection, radius
counts and nearest-neighbour distances.

k-NN is one numpy selection: squared distances, ``np.partition`` for the
k-th smallest, then every strictly closer point plus the lowest-indexed
points at exactly that distance. It returns the same indices as the lexsort
reference ``brute_force_knn`` bit for bit, because both compute the same
squared distances and order candidates by (distance^2, index).

Radius counts (outlier pruning) and nearest distances (densify) compare
blocks of points against each other with ``_squared_distances``, which sums
one coordinate at a time from zero, ((0 + dx^2) + dy^2) + dz^2: the order of
the per-point ``((points - center) ** 2).sum(axis=1)`` in the references, so
every distance has the bits of a per-point loop. ``count_within`` sorts the
points by x and compares each block of sorted rows only with the contiguous
window of points whose x lies within the radius (sweep and prune).

``KDTree`` builds no tree; it holds a point set for ``query_knn``.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

_BLOCK = 2 ** 15  # squared distances per block, except one row with a wider window


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


def _squared_distances(cols, rows):
    """(R, C) squared distances from the R points ``rows`` (3, R) to the C
    points ``cols`` (3, C), summed one coordinate at a time from zero."""
    d2 = np.zeros((rows.shape[1], cols.shape[1]))
    for col, row in zip(cols, rows):
        diff = col - row[:, None]
        diff *= diff
        d2 += diff
    return d2


def count_within(points, radius):
    """For each point of ``points`` (N, 3), the number of points (itself
    included) strictly inside ``radius``: ``brute_force_count_within`` at
    every point, bit for bit.

    Each sorted row's window, the points with x in [fl(x - r), fl(x + r)],
    holds every point that can count, with no margin. Rounding is monotone
    and r is a float, so a pair counts (d2 < r^2, rounded) only if the
    rounded |dx| < r, only if the exact |dx| < r; and a float above the
    exact x - r is at or above its rounding fl(x - r), likewise below x + r.
    """
    n = points.shape[0]
    order = np.argsort(points[:, 0], kind="stable")
    coords = points[order].T.copy()  # (3, N) sorted by x, each coordinate contiguous
    xs = coords[0]
    first = np.searchsorted(xs, xs - radius, side="left")
    stop = np.searchsorted(xs, xs + radius, side="right")
    r2 = radius * radius
    counts = np.empty(n, dtype=np.int64)
    lo = 0
    while lo < n:
        # the most rows from lo whose shared window [first[lo], stop[hi - 1])
        # holds at most _BLOCK distances; windows only grow, so it is a prefix
        widths = stop[lo:lo + max(1, _BLOCK // (stop[lo] - first[lo]))] - first[lo]
        rows = np.arange(1, widths.size + 1)
        hi = lo + max(1, np.count_nonzero(rows * widths <= _BLOCK))
        d2 = _squared_distances(coords[:, first[lo]:stop[hi - 1]], coords[:, lo:hi])
        counts[order[lo:hi]] = np.count_nonzero(d2 < r2, axis=1)
        lo = hi
    return counts


def nearest_distances(positions, indices):
    """Distance from each point ``indices`` of ``positions`` (N, 3) to its
    nearest other point, 1.0 when N = 1. Rows go in blocks of at most
    ``_BLOCK`` squared distances, so a duplicate point reads 0.0 and every
    distance has the bits of a per-point loop."""
    indices = np.asarray(indices, dtype=np.int64)
    n = positions.shape[0]
    if n == 1:
        return np.ones(indices.size)
    out = np.empty(indices.size)
    block = max(1, _BLOCK // n)
    coords = positions.T.copy()  # (3, N): each coordinate contiguous
    for lo in range(0, indices.size, block):
        d2 = _squared_distances(coords, coords[:, indices[lo:lo + block]])
        out[lo:lo + block] = np.sqrt(np.partition(d2, 1, axis=1)[:, 1])
    return out


class KDTree:
    """A point set with ``query_knn``, despite the name no tree. Both
    methods exist only because the benchmark's ``kdtree.build`` and
    ``kdtree.query_knn`` spans resolve ``KDTree.__init__`` and
    ``KDTree.query_knn`` by name; no workload calls either."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[0] == 0:
            raise ContractViolation("k-d tree needs a non-empty (N, d) array")

    def query_knn(self, center, k):
        """Indices (ascending) of the k nearest points to ``center``."""
        center = np.asarray(center, dtype=np.float64)
        n = self.points.shape[0]
        if not 1 <= k <= n:
            raise ContractViolation(f"k={k} out of range for {n} points")
        return knn(self.points, center, k)

"""Directed average-distance coverage metrics for point clouds.

overcoverage d(estimate, truth) punishes estimates with points far from the
truth; undercoverage d(truth, estimate) punishes estimates that miss parts
of the truth.  Both are directed means of point-to-set distances and are
not symmetric.
"""

from __future__ import annotations

import numpy as np

from .random_sets import PSCloud


def dist_point_to_set(a, B) -> float:
    """Euclidean distance from point a to the nearest point of B."""
    a = np.asarray(a, dtype=float)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.size == 0:
        raise ValueError("empty reference set")
    if B.shape[1] != a.shape[0]:
        raise ValueError("dimension mismatch")
    return float(np.min(np.sqrt(np.sum((B - a) ** 2, axis=1))))


def avg_dist(A, B) -> float:
    """Mean over points of A of their distance to B (directed, asymmetric)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.size == 0 or B.size == 0:
        raise ValueError("empty point set")
    total = 0.0
    # chunked pairwise distances keep memory flat for large clouds
    step = max(1, int(2e6) // max(1, len(B)))
    for i in range(0, len(A), step):
        chunk = A[i : i + step]
        d2 = np.sum((chunk[:, None, :] - B[None, :, :]) ** 2, axis=2)
        total += float(np.sqrt(d2.min(axis=1)).sum())
    return total / len(A)


def coverage(cloud, truth) -> tuple[float, float]:
    """(overcoverage, undercoverage) of a cloud against a reference set."""
    return avg_dist(cloud, truth), avg_dist(truth, cloud)


def ps_cloud_to_points(ps: PSCloud) -> np.ndarray:
    """The centroid of each box of a union of boxes."""
    pts = [(np.array(e.box.lo) + np.array(e.box.hi)) / 2.0 for e in ps.boxes]
    if not pts:
        return np.empty((0, 0))
    return np.vstack(pts)

"""From-scratch K-means (Lloyd's algorithm).

The Partition-Scheme (Section IV-D.1) partitions the recharge node list
into ``m`` geographically tight groups with K-means [23] and assigns one
RV per group, starting each RV at its group centroid.  We implement
Lloyd's fixed-point iteration directly — vectorized assignment step,
WCSS tracking, and deterministic seeding — rather than depending on an
external implementation, so the reproduction owns its baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..geometry.points import as_points

__all__ = ["KMeansResult", "kmeans", "wcss"]


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of a K-means run.

    Attributes:
        centroids: ``(k, 2)`` final cluster centers.
        labels: length-n assignment of points to centroids.
        inertia: final within-cluster sum of squares (WCSS).
        n_iter: Lloyd iterations executed until convergence.
        converged: whether assignments reached a fixed point before
            ``max_iter``.
    """

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iter: int
    converged: bool

    def groups(self) -> List[np.ndarray]:
        """Point indices per cluster, ordered by cluster label."""
        return [np.flatnonzero(self.labels == j) for j in range(len(self.centroids))]


def wcss(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    """Within-cluster sum of squares for a given assignment (Eq. 15)."""
    points = as_points(points)
    centroids = as_points(centroids)
    diff = points - centroids[labels]
    return float(np.sum(diff * diff))


def kmeans(
    points: np.ndarray,
    k: int,
    rng: Optional[np.random.Generator] = None,
    max_iter: int = 100,
    n_init: int = 4,
) -> KMeansResult:
    """Cluster ``points`` into ``k`` groups with Lloyd's algorithm.

    Initialization samples ``k`` distinct points uniformly (the classic
    Forgy scheme); ``n_init`` restarts are run and the lowest-WCSS
    solution kept.  Empty clusters are repaired by re-seeding the
    offending centroid at the point farthest from its current centroid,
    which preserves the invariant that every label in ``[0, k)`` is
    used whenever ``k <= len(points)``.

    Args:
        points: ``(n, 2)`` coordinates, ``n >= 1``.
        k: number of clusters, ``1 <= k``.  If ``k >= n`` every point
            becomes its own cluster (labels ``0..n-1``) and remaining
            centroids duplicate existing points.
        rng: random generator; defaults to a fixed-seed generator so the
            function is deterministic unless told otherwise.
        max_iter: Lloyd iteration cap per restart.
        n_init: independent restarts.
    """
    points = as_points(points)
    n = len(points)
    if n == 0:
        raise ValueError("cannot cluster an empty point set")
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if n_init < 1:
        raise ValueError("n_init must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    # The (points x centroids) squared-distance argmin lives in the
    # kernel layer; the Lloyd loop calls its unvalidated form, since
    # ``points`` was validated above and the centroids are rows of it
    # or means of its rows.  Imported here: repro.core's package init
    # reaches this module via the Partition-Scheme, so a top-level
    # kernels import would be circular.
    from ..core import kernels

    if k >= n:
        centroids = points.copy()
        labels = np.arange(n, dtype=np.intp)
        if k > n:  # pad duplicated centroids so shape contracts hold
            extra = points[rng.integers(0, n, size=k - n)]
            centroids = np.vstack([centroids, extra])
        return KMeansResult(centroids, labels, 0.0, 0, True)

    best: Optional[KMeansResult] = None
    for _ in range(n_init):
        seed_idx = rng.choice(n, size=k, replace=False)
        centroids = points[seed_idx].copy()
        labels = kernels._nearest_centroid(points, centroids)
        converged = False
        it = 0
        for it in range(1, max_iter + 1):
            sizes = np.bincount(labels, minlength=k)
            for j in range(k):
                if sizes[j]:
                    # The member mean, bit for bit: ``mean`` is this sum
                    # divided by this count, plus Python overhead.
                    centroids[j] = np.add.reduce(points[labels == j], axis=0) / sizes[j]
                else:
                    d = np.sum((points - centroids[j]) ** 2, axis=1)
                    centroids[j] = points[int(np.argmax(d))]
            new_labels = kernels._nearest_centroid(points, centroids)
            if new_labels.tobytes() == labels.tobytes():
                converged = True
                break
            labels = new_labels
        inertia = wcss(points, centroids, labels)
        candidate = KMeansResult(centroids.copy(), labels.copy(), inertia, it, converged)
        if best is None or candidate.inertia < best.inertia:
            best = candidate
    assert best is not None
    return best

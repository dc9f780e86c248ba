"""From-scratch K-means (Lloyd's algorithm).

The Partition-Scheme (Section IV-D.1) partitions the recharge node list
into ``m`` geographically tight groups with K-means [23] and assigns one
RV per group, starting each RV at its group centroid.  We implement
Lloyd's fixed-point iteration directly — vectorized assignment step,
WCSS tracking, and deterministic seeding — rather than depending on an
external implementation, so the reproduction owns its baseline.

The ``n_init`` restarts run as one array pass: centroid coordinates as
two ``(n_init, k)`` arrays, one assignment step for all of them, member
sums by ``bincount`` and one WCSS row per restart.  Each restart still stops at
its own fixed point and gives the bits the one-restart-at-a-time loop
gives (``tests/oracles.py``): the seeds are drawn in the serial order,
and every sum adds the same terms in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..geometry.points import as_points

__all__ = ["KMeansResult", "kmeans", "wcss"]

# ``ndarray.all``/``any`` without their Python-level wrapper.
_all_of = np.logical_and.reduce
_any_of = np.logical_or.reduce


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
        n_init: independent restarts, run side by side; the first one
            with the lowest WCSS wins.
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
    if k >= n:
        centroids = points.copy()
        labels = np.arange(n, dtype=np.intp)
        if k > n:  # pad duplicated centroids so shape contracts hold
            extra = points[rng.integers(0, n, size=k - n)]
            centroids = np.vstack([centroids, extra])
        return KMeansResult(centroids, labels, 0.0, 0, True)

    # The restarts' Forgy seeds, drawn in the serial order: the
    # generator ends where n_init one-at-a-time restarts leave it.
    cells = n_init * k
    seeds = np.array([rng.choice(n, size=k, replace=False) for _ in range(n_init)])
    # Centroids as one x and one y array of shape (n_init, k), so the
    # assignment step measures plain columns; ``flat_x``/``flat_y`` view
    # them as the (restart, cluster) cells the member sums index.
    px = points[:, 0].copy()
    py = points[:, 1].copy()
    cx = px.take(seeds)
    cy = py.take(seeds)
    flat_x = cx.reshape(cells)
    flat_y = cy.reshape(cells)
    # Broadcast views (n_init, 1, k) against the (n, 1) point columns:
    # every restart's squared distances at once, summed x + y; ties go
    # to the lowest centroid.
    cx3 = cx[:, None, :]
    cy3 = cy[:, None, :]
    px2 = px[:, None]
    py2 = py[:, None]
    dx = np.empty((n_init, n, k))
    dy = np.empty((n_init, n, k))

    def assign() -> np.ndarray:
        np.subtract(px2, cx3, out=dx)
        np.square(dx, out=dx)
        np.subtract(py2, cy3, out=dy)
        np.square(dy, out=dy)
        np.add(dx, dy, out=dx)
        return dx.argmin(axis=-1)

    labels = assign()
    # Restart i's labels index centroid cells i*k .. i*k + k - 1.
    offsets = np.arange(0, cells, k)[:, None]
    flat2d = np.empty((n_init, n), dtype=np.intp)
    flat = flat2d.reshape(n_init * n)
    xs = np.concatenate([px] * n_init)
    ys = np.concatenate([py] * n_init)
    done_x = np.empty_like(cx)
    done_y = np.empty_like(cy)
    done_labels = np.empty_like(labels)
    n_iter = np.full(n_init, max_iter)
    converged = np.zeros(n_init, dtype=bool)
    running = np.ones(n_init, dtype=bool)
    for it in range(1, max_iter + 1):
        np.add(labels, offsets, out=flat2d)
        sizes = np.bincount(flat, minlength=cells)
        # Member sums in index order: the same sequential additions as
        # ``np.add.reduce(points[labels == j], axis=0)``, so each mean
        # is bit for bit the member mean.
        sx = np.bincount(flat, weights=xs, minlength=cells)
        sy = np.bincount(flat, weights=ys, minlength=cells)
        if _all_of(sizes):
            np.divide(sx, sizes, out=flat_x)
            np.divide(sy, sizes, out=flat_y)
        else:
            _update_with_empty(points, flat_x, flat_y, sizes, sx, sy)
        new_labels = assign()
        # Each restart stops at its own fixed point; the ones still
        # running carry on (finished ones are computed but not read).
        settled = _all_of(np.equal(new_labels, labels), axis=1)
        settled &= running
        if _any_of(settled):
            done_x[settled] = cx[settled]
            done_y[settled] = cy[settled]
            done_labels[settled] = labels[settled]
            n_iter[settled] = it
            converged |= settled
            running &= ~settled
            if not _any_of(running):
                break
        labels = new_labels
    if running.any():  # max_iter exhausted
        done_x[running] = cx[running]
        done_y[running] = cy[running]
        done_labels[running] = labels[running]
    done_centroids = np.stack((done_x, done_y), axis=-1)

    # Every restart's WCSS (Eq. 15) as one row sum each: a row of
    # ``(n_init, 2n)`` sums like ``wcss`` sums its ``(n, 2)`` array.
    diff = points - done_centroids[np.arange(n_init)[:, None], done_labels]
    diff *= diff
    inertia = diff.reshape(n_init, 2 * n).sum(axis=1)
    best = int(np.argmin(inertia))  # the first restart with the lowest WCSS
    return KMeansResult(
        done_centroids[best].copy(),
        done_labels[best].copy(),
        float(inertia[best]),
        int(n_iter[best]),
        bool(converged[best]),
    )


def _update_with_empty(points, flat_x, flat_y, sizes, sx, sy) -> None:
    """The centroid update when some cluster lost every member: the
    others move to their member means, and each empty one is re-seeded
    at the point farthest from where it stood."""
    filled = sizes > 0
    np.divide(sx, sizes, out=flat_x, where=filled)
    np.divide(sy, sizes, out=flat_y, where=filled)
    for cell in np.flatnonzero(~filled):
        d = np.sum((points - np.array([flat_x[cell], flat_y[cell]])) ** 2, axis=1)
        flat_x[cell], flat_y[cell] = points[int(np.argmax(d))]

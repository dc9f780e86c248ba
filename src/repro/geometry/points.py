"""Vectorized planar-geometry primitives.

All positions in this library are ``float64`` arrays of shape ``(n, 2)``
holding ``(x, y)`` coordinates in meters.  These helpers are the single
place where distance math lives so that every consumer (routing, the
schedulers, the simulator) agrees on the metric and benefits from the
same vectorization.  The radius queries (:func:`pairs_within`,
:func:`neighbors_within`) are a numpy cell-list search, so the module
needs nothing beyond numpy.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "as_points",
    "distance",
    "distances_from",
    "pairwise_distances",
    "pairs_within",
    "neighbors_within",
]


def as_points(pts: np.ndarray) -> np.ndarray:
    """Validate and canonicalize an ``(n, 2)`` float point array.

    Accepts anything :func:`numpy.asarray` accepts; a single point may be
    given as a flat pair and is promoted to shape ``(1, 2)``.

    Raises:
        ValueError: if the input cannot be interpreted as 2-D points or
            contains non-finite coordinates.
    """
    arr = np.asarray(pts, dtype=np.float64)
    if arr.ndim == 1:
        if arr.shape[0] != 2:
            raise ValueError(f"a single point must have 2 coordinates, got {arr.shape[0]}")
        arr = arr.reshape(1, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected shape (n, 2), got {arr.shape}")
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise ValueError("point coordinates must be finite")
    return arr


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two single points.

    Each point is a ``(2,)`` float64 array (every position in the
    library is one) or an ``(x, y)`` pair of floats; the coordinates are
    indexed directly, with no conversion, and measured with ``np.hypot``
    like every other distance here.
    """
    return float(np.hypot(a[0] - b[0], a[1] - b[1]))


def distances_from(origin: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Distances from one ``origin`` point to every row of ``pts``.

    Returns a 1-D array of length ``len(pts)``.
    """
    pts = as_points(pts)
    origin = np.asarray(origin, dtype=np.float64).reshape(2)
    d = pts - origin
    return np.hypot(d[:, 0], d[:, 1])


def pairwise_distances(a: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Full distance matrix between point sets ``a`` and ``b``.

    With ``b=None`` computes the symmetric self-distance matrix of ``a``.
    Uses broadcasting rather than ``scipy.spatial.distance.cdist`` so the
    function stays allocation-predictable for the small matrices the
    schedulers build (tens to hundreds of points).
    """
    a = as_points(a)
    b = a if b is None else as_points(b)
    diff = a[:, None, :] - b[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


# Cell-list neighbour search.  Points are bucketed on a square grid
# whose side is a hair wider than the radius, so every pair within the
# radius lies in the same or an adjacent cell even after rounding in the
# cell index; the side is also at least 2**-20 of the point spread, so
# cell keys stay far inside int64 however small the radius, and at least
# 2**-510, below which a squared distance is subnormal and can underflow
# to within the radius (such pairs must share or touch a cell too).
# Query cells are clamped to one cell outside the occupied grid, and
# each key column keeps empty rows above and below it, so a stencil step
# off the edge lands on a key no point holds instead of aliasing into
# the next column.
_CELL_PAD = 1.0 + 2.0**-20
_MAX_CELLS_PER_AXIS = 2.0**20
_MIN_CELL = 2.0**-510


def _bucket(pts: np.ndarray, radius: float):
    """Sort ``pts`` (non-empty) into cells of side >= ``radius``.

    Returns ``(order, keys, height, cell_of)``: ``order`` sorts the
    points by cell key, ``keys`` are those sorted keys, ``height`` is the
    key step of one column, and ``cell_of(q)`` maps query points to the
    keys of their cells.
    """
    origin = pts.min(axis=0)
    extent = pts.max(axis=0) - origin
    cell = max(radius * _CELL_PAD, float(extent.max()) / _MAX_CELLS_PER_AXIS, _MIN_CELL)
    if not cell > 0.0:  # a NaN radius
        cell = 1.0
    top = np.floor(extent / cell)
    height = int(top[1]) + 4
    base = 2 * height + 2

    def cell_of(q: np.ndarray) -> np.ndarray:
        c = np.clip(np.floor((q - origin) / cell), -1.0, top + 1.0).astype(np.int64)
        return c[:, 0] * height + c[:, 1] + base

    ij = np.floor((pts - origin) / cell).astype(np.int64)
    keys = ij[:, 0] * height + ij[:, 1] + base
    order = np.argsort(keys, kind="stable")
    return order, keys[order], height, cell_of


def _expand(queries: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Flatten the ranges ``lo[k]:hi[k]`` into ``(query, position)`` pairs."""
    counts = hi - lo
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    positions = np.arange(total, dtype=np.intp) + np.repeat(lo - starts, counts)
    return np.repeat(queries, counts), positions


def _within(ax, ay, bx, by, radius: float) -> np.ndarray:
    """Mask of ``|(ax, ay) - (bx, by)| <= radius`` on squared lengths."""
    dx = ax - bx
    dy = ay - by
    return dx * dx + dy * dy <= radius * radius


def pairs_within(pts: np.ndarray, radius: float) -> np.ndarray:
    """All index pairs ``(i, j), i < j`` with ``dist <= radius``.

    A cell-list search: each point is compared only with the points of
    its own cell and of a half-stencil of four neighbouring cells, so
    building a unit-disk communication graph costs ``O(n log n + k)``
    for ``k`` candidate pairs instead of the naive ``O(n^2)``.  Returns
    an ``(k, 2)`` int array (possibly empty) in lexicographic order.
    """
    pts = as_points(pts)
    if radius < 0:
        raise ValueError("radius must be non-negative")
    n = len(pts)
    if n < 2:
        return np.empty((0, 2), dtype=np.intp)
    order, keys, height, _ = _bucket(pts, radius)
    pos = np.arange(n, dtype=np.intp)
    # Same cell: the later points of the run; then the cells at
    # (0, +1), (+1, -1), (+1, 0), (+1, +1) — each unordered pair once.
    steps = np.array([1, height - 1, height, height + 1], dtype=np.int64)
    targets = (keys[None, :] + steps[:, None]).ravel()
    lo = np.concatenate([pos + 1, np.searchsorted(keys, targets, "left")])
    hi = np.concatenate(
        [np.searchsorted(keys, keys, "right"), np.searchsorted(keys, targets, "right")]
    )
    a, b = _expand(np.tile(pos, 5), lo, hi)
    xs, ys = pts[order, 0], pts[order, 1]
    keep = _within(xs[a], ys[a], xs[b], ys[b], radius)
    a, b = order[a[keep]], order[b[keep]]
    # One sort of ``i * n + j`` puts the pairs in lexicographic order.
    code = np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b)
    code.sort()
    i = code // n
    return np.stack([i, code - i * n], axis=1).astype(np.intp, copy=False)


def neighbors_within(centers: np.ndarray, pts: np.ndarray, radius: float) -> list:
    """For each center, the indices of ``pts`` within ``radius``.

    Returns a list (one entry per center) of sorted int arrays.  This is
    the primitive behind "which sensors can detect target t": the same
    cell-list search as :func:`pairs_within`, scanning the full 3x3
    stencil of cells around each center.
    """
    centers = as_points(centers)
    pts = as_points(pts)
    if radius < 0:
        raise ValueError("radius must be non-negative")
    m, n = len(centers), len(pts)
    if n == 0 or m == 0:
        return [np.empty(0, dtype=np.intp) for _ in range(m)]
    order, keys, height, cell_of = _bucket(pts, radius)
    steps = np.array(
        [dx * height + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)], dtype=np.int64
    )
    targets = (cell_of(centers)[None, :] + steps[:, None]).ravel()
    lo = np.searchsorted(keys, targets, "left")
    hi = np.searchsorted(keys, targets, "right")
    c, p = _expand(np.tile(np.arange(m, dtype=np.intp), len(steps)), lo, hi)
    p = order[p]
    keep = _within(centers[c, 0], centers[c, 1], pts[p, 0], pts[p, 1], radius)
    code = c[keep].astype(np.int64) * n + p[keep]
    code.sort()
    counts = np.bincount(code // n, minlength=m)
    return np.split((code % n).astype(np.intp, copy=False), np.cumsum(counts)[:-1])

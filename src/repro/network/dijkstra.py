"""Single-source shortest paths on a CSR graph.

A from-scratch binary-heap Dijkstra — the paper routes sensing data to
the base station "using Dijkstra's shortest path algorithm" (Section V).
Implemented directly on the CSR arrays of
:class:`repro.network.topology.Topology` with the standard lazy-deletion
heap; the test suite cross-validates it against
:func:`networkx.single_source_dijkstra_path_length`.
"""

from __future__ import annotations

import heapq
from typing import Tuple

import numpy as np

__all__ = ["shortest_paths"]


def shortest_paths(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    source: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Dijkstra from ``source`` over a CSR adjacency.

    Args:
        indptr: CSR row pointer, length ``n + 1``.
        indices: CSR column indices (directed arcs).
        weights: non-negative arc lengths aligned with ``indices``
            (``ValueError`` on a negative or NaN entry).
        source: start vertex.

    Returns:
        ``(dist, parent)`` — ``dist[v]`` is the shortest distance from
        ``source`` to ``v`` (``inf`` if unreachable); ``parent[v]`` is
        the predecessor of ``v`` on one shortest path (``-1`` for the
        source and unreachable vertices).
    """
    n = len(indptr) - 1
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")
    # One scan per call; ``>= 0`` is False for NaN, so a NaN arc raises
    # here instead of silently losing every relaxation through it.
    if not (np.asarray(weights) >= 0).all():
        raise ValueError("Dijkstra requires non-negative weights")
    dist = np.full(n, np.inf, dtype=np.float64)
    parent = np.full(n, -1, dtype=np.intp)
    done = np.zeros(n, dtype=bool)
    dist[source] = 0.0
    heap: list = [(0.0, source)]
    while heap:
        d_u, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        start, stop = indptr[u], indptr[u + 1]
        for k in range(start, stop):
            v = indices[k]
            if done[v]:
                continue
            nd = d_u + weights[k]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, int(v)))
    return dist, parent

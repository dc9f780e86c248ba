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
import weakref
from collections import OrderedDict
from typing import Tuple

import numpy as np

__all__ = ["shortest_paths"]

# Weight arrays already scanned for negative entries, keyed on array
# identity (an LRU-bounded OrderedDict whose weakrefs guard against
# id() reuse after eviction).  A Topology runs one
# Dijkstra per sensor against the same weight array; validating it once
# instead of n times removes an O(E) scan from every source.  Weights
# are treated as immutable after the first call, like every other
# position/weight array in this library.
_VALIDATED_WEIGHTS: "OrderedDict[int, weakref.ref]" = OrderedDict()
_VALIDATED_WEIGHTS_MAX = 64


def _check_nonnegative(weights: np.ndarray) -> None:
    key = id(weights)
    hit = _VALIDATED_WEIGHTS.get(key)
    if hit is not None and hit() is weights:
        _VALIDATED_WEIGHTS.move_to_end(key)
        return
    if np.any(weights < 0):
        raise ValueError("Dijkstra requires non-negative weights")
    try:
        ref = weakref.ref(weights)
    except TypeError:  # non-weakref-able input (e.g. a list): skip caching
        return
    _VALIDATED_WEIGHTS[key] = ref
    while len(_VALIDATED_WEIGHTS) > _VALIDATED_WEIGHTS_MAX:
        _VALIDATED_WEIGHTS.popitem(last=False)


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
        weights: non-negative arc lengths aligned with ``indices``.
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
    _check_nonnegative(weights)
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

"""Vectorized scheduling kernels and the shared distance cache.

Every scheduler decision in this library reduces to a handful of
numeric primitives — "profit of each candidate", "detour of inserting
node *n* into gap *s*", "nearest unvisited stop" —
evaluated thousands of times per scheduling event.  This module is the
single home for those primitives, each written as numpy broadcasts and
masked argmax/argmin reductions.

Each kernel is **bit-identical** to the plain per-element Python loop
it replaced: the vectorized code performs the same IEEE-754 operations,
per element, in the same order as the scalar loop (``np.hypot`` is
sign-insensitive, elementwise ufuncs carry no reduction-order freedom,
and ties resolve to the lowest index), so fixed-seed goldens pin both.
The scalar loops live on as test oracles (``tests/oracles.py``) that
the tier-1 property tests compare every kernel against.

:class:`DistanceCache` memoizes the stop/stop pairwise matrix and the
stop/origin distance rows for one position array.  Every caller holds
its cache explicitly: a scheduling round builds one for its stop table
(:mod:`repro.core.insertion`) or its snapshot (:mod:`repro.core.greedy`)
and plans every RV and every chained sequence against it, so each leg
is measured once per round.  The cache validates its array once, at
construction; its rows slice or measure that validated array directly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from ..geometry.points import as_points

# ``ndarray.any`` without its Python-level wrapper: the masks here are a
# few dozen entries, where the wrapper costs more than the reduction.
_any = np.logical_or.reduce

__all__ = [
    "DistanceCache",
    "greedy_pick",
    "insertion_eval",
    "masked_argmax",
    "masked_argmax_2d",
    "masked_argmin",
    "profit_vector",
    "uplink_etx_vector",
]


# ----------------------------------------------------------------------
# distance cache
# ----------------------------------------------------------------------


class DistanceCache:
    """Memoized distance geometry over one ``(n, 2)`` stop array.

    The array is validated once and treated as immutable after
    construction (the repo-wide position contract).  Everything is
    measured with ``np.hypot``, the library-wide metric, so a cached
    entry is bit-identical to a direct measurement.
    """

    __slots__ = ("points", "_pairwise", "_rows", "_origin_rows")

    def __init__(self, points: np.ndarray) -> None:
        self.points = as_points(points)
        self._pairwise: Optional[np.ndarray] = None
        self._rows: Dict[int, np.ndarray] = {}
        self._origin_rows: "OrderedDict[bytes, np.ndarray]" = OrderedDict()

    def __len__(self) -> int:
        return len(self.points)

    @property
    def pairwise(self) -> np.ndarray:
        """The full stop/stop distance matrix, computed at most once."""
        if self._pairwise is None:
            # pairwise_distances() minus its re-validation of the owned array.
            d = self.points[:, None, :] - self.points[None, :, :]
            self._pairwise = np.hypot(d[..., 0], d[..., 1])
        return self._pairwise

    def row(self, i: int) -> np.ndarray:
        """Distances from stop ``i`` to every stop.

        Slices :attr:`pairwise` when the matrix already exists;
        otherwise measures (and memoizes) the single row, so a caller
        that only ever needs a few origins never pays the full matrix.
        """
        if self._pairwise is not None:
            return self._pairwise[i]
        hit = self._rows.get(i)
        if hit is None:
            hit = self._measure(self.points[i])
            self._rows[i] = hit
        return hit

    def from_point(self, origin: np.ndarray) -> np.ndarray:
        """Distances from an arbitrary origin (RV / depot) to every stop.

        Memoized on the origin's coordinate bytes — each depot or RV
        position is measured against the stop set once per cache.
        """
        origin = np.asarray(origin, dtype=np.float64).reshape(2)
        key = origin.tobytes()
        hit = self._origin_rows.get(key)
        if hit is None:
            hit = self._measure(origin)
            self._origin_rows[key] = hit
            while len(self._origin_rows) > 128:
                self._origin_rows.popitem(last=False)
        return hit

    def _measure(self, origin: np.ndarray) -> np.ndarray:
        # distances_from() minus its re-validation of the owned array.
        d = self.points - origin
        return np.hypot(d[:, 0], d[:, 1])


# ----------------------------------------------------------------------
# profit / selection kernels
# ----------------------------------------------------------------------


def profit_vector(
    demands: np.ndarray, dists: np.ndarray, em_j_per_m: float
) -> np.ndarray:
    """Per-node one-shot profit ``d_i - em * dist_i`` (Eq. (2) pricing)."""
    return demands - em_j_per_m * dists


def greedy_pick(
    demands: np.ndarray,
    dists: np.ndarray,
    em_j_per_m: float,
    mask: Optional[np.ndarray] = None,
) -> Optional[int]:
    """Index of the max-profit node among ``mask`` (Algorithm 2, line 8).

    Ties resolve to the lowest index; ``None`` when nothing is selectable.
    """
    if len(demands) == 0 or (mask is not None and not _any(mask)):
        return None
    profits = demands - em_j_per_m * dists
    if mask is not None:
        profits = np.where(mask, profits, -np.inf)
    return int(profits.argmax())


def masked_argmax(values: np.ndarray, mask: np.ndarray) -> Optional[int]:
    """First index of the maximum of ``values`` where ``mask`` holds."""
    if not _any(mask):
        return None
    return int(np.where(mask, values, -np.inf).argmax())


def masked_argmax_2d(
    values: np.ndarray, mask: np.ndarray
) -> Optional[Tuple[int, int]]:
    """Row-major first ``(row, col)`` of the masked maximum, or ``None``."""
    if not _any(mask, axis=None):
        return None
    return divmod(int(np.where(mask, values, -np.inf).argmax()), values.shape[1])


def masked_argmin(dists: np.ndarray, mask: Optional[np.ndarray] = None) -> Optional[int]:
    """First index of the minimum of ``dists`` where ``mask`` holds."""
    if len(dists) == 0 or (mask is not None and not _any(mask)):
        return None
    d = dists if mask is None else np.where(mask, dists, np.inf)
    return int(d.argmin())


# ----------------------------------------------------------------------
# insertion kernel — Algorithm 3's p(s, n) evaluation
# ----------------------------------------------------------------------


def insertion_eval(
    dist: np.ndarray,
    waypoints: np.ndarray,
    candidates: np.ndarray,
    demands: np.ndarray,
    delivery_j: np.ndarray,
    em_j_per_m: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Profit difference and budget debit of every candidate insertion.

    Gap ``s`` runs waypoint ``s`` → waypoint ``s + 1``; candidate ``c``
    is stop ``candidates[c]``.  For each pair this evaluates the paper's
    ``p(s, n) = D(n) - em * delta_d(s)`` and the budget debit
    ``em * delta_d(s) + D(n) / efficiency``.

    Args:
        dist: distances from every waypoint row to every stop column:
            the round's stop/stop matrix with the RV's row of
            distances appended (:mod:`repro.core.insertion`).
        waypoints: ``intp`` rows of ``dist`` in visit order, the RV
            first and the destination last.
        candidates: ``intp`` stop columns to evaluate.
        demands: each candidate's demand ``D(n)``.
        delivery_j: each candidate's ``D(n) / efficiency``.

    Returns:
        ``(p, extra_cost)`` — both of shape
        ``(len(waypoints) - 1, len(candidates))``.
    """
    # One gather serves both ends of every gap: row s is d(w_s, n), so
    # rows [:-1] are the gap heads' legs and rows [1:] the tails'.
    legs = dist[waypoints[:, None], candidates]
    detour = legs[:-1] + legs[1:]
    detour -= dist[waypoints[:-1], waypoints[1:]][:, None]  # (gaps, candidates)
    travel_j = em_j_per_m * detour
    p = demands - travel_j
    travel_j += delivery_j
    return p, travel_j


# ----------------------------------------------------------------------
# ETX uplink kernel (SimulationState.from_config)
# ----------------------------------------------------------------------


def uplink_etx_vector(
    points: np.ndarray,
    parent: np.ndarray,
    n_sensors: int,
    comm_range_m: float,
) -> np.ndarray:
    """Expected per-packet transmissions on each sensor's uplink.

    One batched :func:`~repro.network.linkquality.prr_from_distance`
    call over every parented sensor replaces the per-sensor 1-element
    arrays a scalar loop would build; entries are bit-identical (all
    the PRR arithmetic is elementwise).
    """
    from ..network.linkquality import prr_from_distance

    points = np.asarray(points, dtype=np.float64)
    parent = np.asarray(parent)
    etx = np.ones(n_sensors, dtype=np.float64)
    vs = np.flatnonzero(parent[:n_sensors] >= 0)
    if vs.size:
        diff = points[vs] - points[parent[vs]]
        hops = np.hypot(diff[:, 0], diff[:, 1])
        prr = prr_from_distance(hops, comm_range_m)
        vals = np.ones_like(prr)
        np.divide(1.0, prr * prr, out=vals, where=prr > 0)
        etx[vs] = vals
    return etx

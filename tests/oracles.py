"""Scalar oracles for the array kernels (test-only).

The simulator runs one tick path: structure-of-arrays state, a full
energy recompute with ancestor-row relay counts, and vectorized
scheduling kernels.  Each of those kernels replaced a plain Python loop
that performed the same IEEE-754 operations per element in the same
order.  The loops live here, outside the library, as the executable
specification the parity tests compare the kernels against:

* :func:`relay_walk` — per-origin root-path walk of the relay packet
  counts (:func:`repro.sim.soa.relay_counts`);
* :class:`RoundRobinLoop`, :class:`FullTimeLoop`,
  :func:`nodes_to_release` and :func:`erc_release_mismatches` — the
  per-cluster activation, ERC gate and ERC monitor loops (the
  activators of :mod:`repro.sim.soa`, :func:`repro.sim.soa.erc_release`
  and :meth:`repro.obs.MonitorSet.check_erc_release_arrays`);
* the energy path's earlier forms: :func:`price_rates` (``np.where``
  masks over float through-counts), :func:`drain_rates` (a checked
  drain clamped at both ends on every step), :func:`drain_handoffs`
  (one lump drain per column) and :class:`DataclassSimulator` (a heap
  of ``@dataclass(order=True)`` entries);
* :func:`to_networkx`, the topology as a :mod:`networkx` graph for the
  Dijkstra cross-check;
* :func:`distance`, converting both points before measuring
  (:func:`repro.geometry.points.distance` indexes them directly);
* the scheduling-kernel loops (:mod:`repro.core.kernels`), the serial
  Lloyd loop :func:`kmeans_serial` (one restart and one centroid at a
  time; :func:`repro.cluster.kmeans.kmeans` runs every restart in one
  array pass), the scalar first-improvement 2-opt
  (:func:`repro.tsp.two_opt.two_opt`) and the per-step
  nearest-neighbour tour
  (:func:`repro.tsp.nearest_neighbor.nearest_neighbor_from`);
* the re-aggregating chained planners (:func:`plan_single_rv`,
  :func:`plan_single_rv_chained`, :func:`insertion_assign`,
  :func:`partition_assign` over :func:`partition_requests`,
  :func:`deadline_assign`): every RV and every chained sequence
  re-snapshots what is left and folds it into fresh super-nodes, where
  the library plans each round over one stop table
  (:mod:`repro.core.insertion`).

:func:`reference_kernels` and :func:`reference_tick_paths` patch the
oracles into the call sites, so whole scheduler calls and whole
simulation runs can be compared against the array path.
"""

from __future__ import annotations

import collections
import contextlib
import heapq
import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np

from repro.geometry.points import as_points, distances_from

#: Same move threshold as :mod:`repro.tsp.two_opt`.
_EPS = 1e-12


# ----------------------------------------------------------------------
# relay accounting
# ----------------------------------------------------------------------


def relay_walk(cnt: np.ndarray, parent: np.ndarray) -> None:
    """Add each origin's packet to every vertex on its root path.

    ``cnt`` holds 1 at every origin on entry; on exit every vertex
    holds its own packet plus the packets it relays (the base station
    counts what it receives but never forwards).  Modified in place.
    """
    for v in np.flatnonzero(cnt):
        u = int(parent[v])
        while u >= 0:
            cnt[u] += 1
            u = int(parent[u])


def walk_counts(origins: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """:func:`relay_walk` per sensor: the origins whose root path passes
    through it (its own packet included)."""
    n = len(origins)
    cnt = np.zeros(len(parent), dtype=np.int64)
    cnt[:n][origins] = 1
    relay_walk(cnt, parent)
    return cnt[:n]


def walk_relay_counts(origins: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """:func:`walk_counts` in the shape of
    :func:`repro.sim.soa.relay_counts`: the packets each sensor relays
    for others.  An origin with no route has parent ``-1``, so its walk
    adds to nothing and it relays nothing."""
    return walk_counts(origins, parent) - origins


# ----------------------------------------------------------------------
# activation and the ERC gate (Sections III-B and III-C)
# ----------------------------------------------------------------------


class FullTimeLoop:
    """Full-time activation, one cluster at a time
    (:class:`repro.sim.soa.FullTimeActivator`): every alive member
    monitors, the lowest-ID alive one is reported per cluster."""

    rotates = False

    def __init__(self, cluster_set, arrays=None) -> None:
        self.cluster_set = cluster_set

    def active_mask(self, alive: np.ndarray) -> np.ndarray:
        return self.cluster_set.clustered_mask() & alive

    def active_sensor_per_cluster(self, alive: np.ndarray) -> np.ndarray:
        out = np.full(len(self.cluster_set), -1, dtype=np.int64)
        for c in self.cluster_set:
            alive_members = c.members[alive[c.members]]
            if len(alive_members) > 0:
                out[c.cluster_id] = alive_members[0]
        return out

    def covered_mask(self, alive: np.ndarray) -> np.ndarray:
        return self.active_sensor_per_cluster(alive) >= 0

    def rotate(self, alive: np.ndarray) -> np.ndarray:
        return np.empty((0, 2), dtype=np.int64)


class RoundRobinLoop:
    """Round-robin activation, one cluster at a time
    (:class:`repro.sim.soa.RoundRobinActivator`).

    Each cluster's pointer walks its ID-sorted member list one slot per
    rotation, starting at the lowest ID; depleted members are skipped
    (no acknowledgement of the notification), and every move of the
    duty between two alive members is reported as a hand-off.
    """

    rotates = True

    def __init__(self, cluster_set, arrays=None) -> None:
        self.cluster_set = cluster_set
        self._ptr = np.zeros(len(cluster_set), dtype=np.int64)

    def _first_alive_from(self, cluster_id: int, start: int, alive: np.ndarray) -> Optional[int]:
        """Member *slot* of the first alive member at or after ``start``
        (wrapping), or None if the cluster is entirely depleted."""
        members = self.cluster_set[cluster_id].members
        nc = len(members)
        for step in range(nc):
            slot = (start + step) % nc
            if alive[members[slot]]:
                return slot
        return None

    def active_sensor_per_cluster(self, alive: np.ndarray) -> np.ndarray:
        out = np.full(len(self.cluster_set), -1, dtype=np.int64)
        for c in self.cluster_set:
            slot = self._first_alive_from(c.cluster_id, int(self._ptr[c.cluster_id]), alive)
            if slot is not None:
                out[c.cluster_id] = c.members[slot]
        return out

    def active_mask(self, alive: np.ndarray) -> np.ndarray:
        mask = np.zeros(self.cluster_set.n_sensors, dtype=bool)
        actives = self.active_sensor_per_cluster(alive)
        mask[actives[actives >= 0]] = True
        return mask

    def covered_mask(self, alive: np.ndarray) -> np.ndarray:
        return self.active_sensor_per_cluster(alive) >= 0

    def rotate(self, alive: np.ndarray) -> np.ndarray:
        handoffs = []
        for c in self.cluster_set:
            nc = c.size
            if nc == 0:
                continue
            cur_slot = self._first_alive_from(c.cluster_id, int(self._ptr[c.cluster_id]), alive)
            if cur_slot is None:
                continue
            nxt_slot = self._first_alive_from(c.cluster_id, (cur_slot + 1) % nc, alive)
            self._ptr[c.cluster_id] = nxt_slot if nxt_slot is not None else cur_slot
            if nxt_slot is not None and nxt_slot != cur_slot:
                handoffs.append((int(c.members[cur_slot]), int(c.members[nxt_slot])))
        if not handoffs:
            return np.empty((0, 2), dtype=np.int64)
        return np.array(handoffs, dtype=np.int64)


def nodes_to_release(erp: float, cluster_set, below: np.ndarray, listed: np.ndarray) -> List[int]:
    """The ERC gate one cluster at a time (:func:`repro.sim.soa.erc_release`).

    A cluster releases every needy (``below``) non-listed member once
    ``release_count_needed(nc, erp)`` of its members are needy, listed
    ones included; unclustered needy sensors always release.  Returns
    ascending sensor ids.
    """
    from repro.core.erc import release_count_needed

    release: List[int] = []
    for c in cluster_set:
        if c.size == 0:
            continue
        needy = c.members[below[c.members]]
        if len(needy) >= release_count_needed(c.size, erp):
            release.extend(int(s) for s in needy if not listed[s])
    unclustered = ~cluster_set.clustered_mask()
    release.extend(int(s) for s in np.flatnonzero(unclustered & below & ~listed))
    return sorted(release)


def erc_release_mismatches(
    cluster_set, below: np.ndarray, listed: np.ndarray, released: Sequence[int], erp: float
) -> List[str]:
    """The ERC monitor one cluster at a time
    (:meth:`repro.obs.MonitorSet.check_erc_release_arrays`).

    A cluster releases either every needy non-listed member (gate open:
    at least ``release_count_needed(nc, erp)`` needy members) or none;
    unclustered needy sensors always release.  Returns one message per
    cluster whose release disagrees (plus one for the unclustered
    sensors); empty when ``released`` honors the gate.
    """
    from repro.core.erc import release_count_needed

    below = np.asarray(below, dtype=bool)
    listed = np.asarray(listed, dtype=bool)
    released_set = set(int(n) for n in released)
    out: List[str] = []
    for c in cluster_set:
        if c.size == 0:
            continue
        members = np.asarray(c.members)
        needy = members[below[members]]
        threshold = release_count_needed(c.size, erp)
        due = set(int(s) for s in needy if not listed[s])
        got = released_set & set(int(m) for m in members)
        if len(needy) >= threshold and got != due:
            out.append(f"cluster {c.cluster_id} gate open but released "
                       f"{sorted(got)} instead of {sorted(due)}")
        elif len(needy) < threshold and got:
            out.append(f"cluster {c.cluster_id} released {sorted(got)} with only "
                       f"{len(needy)}/{c.size} needy (threshold {threshold})")
    unclustered = ~cluster_set.clustered_mask()
    due_uncl = set(int(s) for s in np.flatnonzero(unclustered & below & ~listed))
    got_uncl = released_set & set(int(s) for s in np.flatnonzero(unclustered))
    if got_uncl != due_uncl:
        out.append(f"unclustered release mismatch: {sorted(got_uncl)} "
                   f"instead of {sorted(due_uncl)}")
    return out


# ----------------------------------------------------------------------
# the energy path's earlier forms
# ----------------------------------------------------------------------


def price_rates(energy, alive, active, origins, through) -> Tuple[np.ndarray, np.ndarray]:
    """``EnergyAccounting.price`` as a chain of ``np.where`` selections
    over float through-counts: ``(rates, relay_w)`` for the masks, with
    ``energy`` supplying the power constants and the uplink ETX."""
    relay = np.subtract(through, origins, dtype=np.float64)
    relay *= energy._packet_rate_hz
    relay *= energy._per_packet_relay_j
    relay *= energy.s.uplink_etx
    relay_w = np.where(alive, relay, 0.0)
    duty_w = energy._idle_w + energy._sensing_w
    base = np.where(active, duty_w, energy._idle_w)
    base += relay_w
    return np.where(alive, base, 0.0), relay_w


def reference_pricing(energy, leaky: bool) -> Tuple[np.ndarray, dict]:
    """The rates and category Watts a full recompute of ``energy``
    produces for its current alive/active masks and levels, from
    :func:`price_rates`, :func:`walk_counts` and ``np.where`` leakage."""
    s = energy.s
    alive = s.bank.levels_j > 0.0
    active = s.activator.active_mask(alive)
    origins = active & np.isfinite(s.routing.dist[: len(alive)])
    through = walk_counts(origins, s.routing.parent)
    rates, relay_w = price_rates(energy, alive, active, origins, through)
    leak_total = 0.0
    if leaky:
        leak_w = np.where(alive, s.bank.levels_j * energy._leak_per_s, 0.0)
        rates += leak_w
        leak_total = float(leak_w.sum())
    watts = {
        "idle": float(np.count_nonzero(alive)) * energy._idle_w,
        "sensing": float(np.count_nonzero(active)) * energy._sensing_w,
        "relay": float(relay_w.sum()),
        "leakage": leak_total,
    }
    return rates, watts


def drain_rates(bank, rates_w, dt_s: float) -> None:
    """Advance every battery of ``bank`` by ``dt_s`` seconds at per-node
    draw ``rates_w``, checking the inputs and clamping the levels to
    ``[0, capacity]`` on every call (the simulator checks its rates once
    per re-pricing and clamps only when a sensor died)."""
    if dt_s < 0:
        raise ValueError("dt_s must be non-negative")
    rates_w = np.asarray(rates_w, dtype=np.float64)
    if rates_w.shape != bank.levels_j.shape:
        raise ValueError(f"rates shape {rates_w.shape} != bank shape {bank.levels_j.shape}")
    if (rates_w < 0).any():
        raise ValueError("power draws must be non-negative")
    bank.drain_unclamped(rates_w, dt_s, np.empty_like(bank.levels_j))
    np.maximum(bank.levels_j, 0.0, out=bank.levels_j)
    np.minimum(bank.levels_j, bank.capacity_j, out=bank.levels_j)


def drain_handoffs(bank, handoffs: np.ndarray, notification_j: float, rx_j: float) -> None:
    """Charge hand-off notifications one column at a time, each a lump
    drain clamped at empty: TX to the holders, then RX to the
    successors."""
    for column, amount_j in ((handoffs[:, 0], notification_j), (handoffs[:, 1], rx_j)):
        bank.levels_j[column] = np.maximum(bank.levels_j[column] - amount_j, 0.0)


@dataclass(order=True)
class _Entry:
    time: float
    priority: int
    seq: int
    callback: Optional[Callable[[], None]] = field(compare=False)


class DataclassSimulator:
    """The event queue over ``@dataclass(order=True)`` heap entries: the
    firing-order oracle for :class:`repro.sim.engine.Simulator`."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list = []
        self._seq = itertools.count()

    def schedule(self, at: float, callback, priority: int = 0) -> _Entry:
        entry = _Entry(float(at), priority, next(self._seq), callback)
        heapq.heappush(self._heap, entry)
        return entry

    def run_until(self, t_end: float) -> None:
        heap = self._heap
        while heap and heap[0].time <= t_end:
            entry = heapq.heappop(heap)
            self.now = entry.time
            entry.callback()
        self.now = t_end


# ----------------------------------------------------------------------
# network
# ----------------------------------------------------------------------


def to_networkx(topology):
    """``topology`` as a :class:`networkx.Graph` with ``weight`` edge
    attributes: the independent graph the Dijkstra cross-check runs on."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(len(topology.points)))
    for u in range(len(topology.points)):
        for v, w in zip(topology.neighbors(u), topology.neighbor_weights(u)):
            if u < v:
                g.add_edge(int(u), int(v), weight=float(w))
    return g


# ----------------------------------------------------------------------
# geometry
# ----------------------------------------------------------------------


def distance(a, b) -> float:
    """:func:`repro.geometry.points.distance` converting both points to
    ``(2,)`` float64 arrays first."""
    a = np.asarray(a, dtype=np.float64).reshape(2)
    b = np.asarray(b, dtype=np.float64).reshape(2)
    return float(np.hypot(a[0] - b[0], a[1] - b[1]))


# ----------------------------------------------------------------------
# scheduling kernels
# ----------------------------------------------------------------------


def profit_vector(demands, dists, em_j_per_m: float) -> np.ndarray:
    demands = np.asarray(demands, dtype=np.float64)
    dists = np.asarray(dists, dtype=np.float64)
    out = np.empty(len(demands), dtype=np.float64)
    for i in range(len(demands)):
        out[i] = demands[i] - em_j_per_m * dists[i]
    return out


def greedy_pick(demands, dists, em_j_per_m: float, mask=None) -> Optional[int]:
    demands = np.asarray(demands, dtype=np.float64)
    dists = np.asarray(dists, dtype=np.float64)
    if len(demands) == 0 or (mask is not None and not np.any(mask)):
        return None
    best = -np.inf
    best_i = -1
    for i in range(len(demands)):
        if mask is not None and not mask[i]:
            continue
        p = demands[i] - em_j_per_m * dists[i]
        if p > best:
            best = p
            best_i = i
    return best_i


def masked_argmax(values, mask) -> Optional[int]:
    values = np.asarray(values, dtype=np.float64)
    if not np.any(mask):
        return None
    best = -np.inf
    best_i = -1
    for i in range(len(values)):
        if mask[i] and values[i] > best:
            best = values[i]
            best_i = i
    return best_i


def masked_argmax_2d(values, mask) -> Optional[Tuple[int, int]]:
    values = np.asarray(values, dtype=np.float64)
    if not np.any(mask):
        return None
    best = -np.inf
    best_rc = (-1, -1)
    rows, cols = values.shape
    for r in range(rows):
        for c in range(cols):
            if mask[r, c] and values[r, c] > best:
                best = values[r, c]
                best_rc = (r, c)
    return best_rc


def masked_argmin(dists, mask=None) -> Optional[int]:
    dists = np.asarray(dists, dtype=np.float64)
    if len(dists) == 0 or (mask is not None and not np.any(mask)):
        return None
    best = np.inf
    best_i = -1
    for i in range(len(dists)):
        if mask is not None and not mask[i]:
            continue
        if dists[i] < best:
            best = dists[i]
            best_i = i
    return best_i


def insertion_eval(
    dist, waypoints, candidates, demands, delivery_j, em_j_per_m
) -> Tuple[np.ndarray, np.ndarray]:
    k, r = len(waypoints) - 1, len(candidates)
    p = np.empty((k, r), dtype=np.float64)
    extra = np.empty((k, r), dtype=np.float64)
    for s in range(k):
        a, b = waypoints[s], waypoints[s + 1]
        d_ab = dist[a, b]
        for c in range(r):
            n = candidates[c]
            detour = dist[a, n] + dist[b, n] - d_ab
            p[s, c] = demands[c] - em_j_per_m * detour
            extra[s, c] = em_j_per_m * detour + delivery_j[c]
    return p, extra


def kmeans_assign(points, centroids) -> np.ndarray:
    points = as_points(points)
    centroids = as_points(centroids)
    labels = np.empty(len(points), dtype=np.intp)
    for i in range(len(points)):
        best = np.inf
        best_j = -1
        for j in range(len(centroids)):
            d2 = (points[i, 0] - centroids[j, 0]) ** 2 + (
                points[i, 1] - centroids[j, 1]
            ) ** 2
            if d2 < best:
                best = d2
                best_j = j
        labels[i] = best_j
    return labels


def kmeans_serial(points, k: int, rng=None, max_iter: int = 100, n_init: int = 4):
    """One restart at a time, one centroid at a time: the Lloyd loop
    :func:`repro.cluster.kmeans.kmeans` runs as one array pass over all
    restarts, with :func:`kmeans_assign` as its assignment step."""
    from repro.cluster.kmeans import KMeansResult

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
        if k > n:
            extra = points[rng.integers(0, n, size=k - n)]
            centroids = np.vstack([centroids, extra])
        return KMeansResult(centroids, labels, 0.0, 0, True)

    best = None
    for _ in range(n_init):
        seed_idx = rng.choice(n, size=k, replace=False)
        centroids = points[seed_idx].copy()
        labels = kmeans_assign(points, centroids)
        converged = False
        it = 0
        for it in range(1, max_iter + 1):
            sizes = np.bincount(labels, minlength=k)
            for j in range(k):
                if sizes[j]:
                    centroids[j] = np.add.reduce(points[labels == j], axis=0) / sizes[j]
                else:
                    d = np.sum((points - centroids[j]) ** 2, axis=1)
                    centroids[j] = points[int(np.argmax(d))]
            new_labels = kmeans_assign(points, centroids)
            if new_labels.tobytes() == labels.tobytes():
                converged = True
                break
            labels = new_labels
        diff = points - centroids[labels]
        inertia = float(np.sum(diff * diff))
        candidate = KMeansResult(centroids.copy(), labels.copy(), inertia, it, converged)
        if best is None or candidate.inertia < best.inertia:
            best = candidate
    return best


def uplink_etx_vector(points, parent, n_sensors: int, comm_range_m: float) -> np.ndarray:
    from repro.network.linkquality import prr_from_distance

    points = np.asarray(points, dtype=np.float64)
    parent = np.asarray(parent)
    etx = np.ones(n_sensors, dtype=np.float64)
    for v in range(n_sensors):
        p = parent[v]
        if p >= 0:
            hop = float(np.hypot(*(points[v] - points[p])))
            prr = float(prr_from_distance(np.array([hop]), comm_range_m)[0])
            etx[v] = 1.0 / (prr * prr) if prr > 0 else 1.0
    return etx


# ----------------------------------------------------------------------
# tours
# ----------------------------------------------------------------------


def two_opt(points, order: Sequence[int], max_rounds: int = 50) -> List[int]:
    """The nested first-improvement loop over an open tour."""
    points = as_points(points)
    order = [int(i) for i in order]
    n = len(order)
    if n < 4:
        return order
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")

    def seg(a: int, b: int) -> float:
        d = points[a] - points[b]
        return float(np.hypot(d[0], d[1]))

    for _ in range(max_rounds):
        improved = False
        # Reverse order[i:j+1]; endpoints 0 and n-1 never move.
        for i in range(1, n - 2):
            for j in range(i + 1, n - 1):
                a, b = order[i - 1], order[i]
                c, d = order[j], order[j + 1]
                delta = seg(a, c) + seg(b, d) - seg(a, b) - seg(c, d)
                if delta < -_EPS:
                    order[i : j + 1] = reversed(order[i : j + 1])
                    improved = True
        if not improved:
            break
    return order


def nearest_neighbor_order(points, start=None) -> List[int]:
    """Nearest-neighbour tour measuring every step's legs afresh."""
    points = as_points(points)
    n = len(points)
    if n == 0:
        return []
    remaining = np.ones(n, dtype=bool)
    current = 0 if start is None else masked_argmin(distances_from(start, points), remaining)
    order = [current]
    remaining[current] = False
    for _ in range(n - 1):
        current = masked_argmin(distances_from(points[current], points), remaining)
        order.append(current)
        remaining[current] = False
    return order


def insertion_order(stops, rv_position, budget_j, em_j_per_m, charge_efficiency) -> List[int]:
    """Algorithm 3 one scalar at a time: every distance measured when
    it is needed, the pick popped from the remaining list and inserted
    into the route (:func:`repro.core.insertion.build_insertion_sequence`
    keeps its candidate columns fixed and gathers from one matrix)."""

    def dist(p, q) -> float:
        d = p - q
        return float(np.hypot(d[0], d[1]))

    rv = np.asarray(rv_position, dtype=np.float64).reshape(2)
    pos = [s.position for s in stops]
    dem = [s.demand_j for s in stops]
    if not stops or budget_j <= 0:
        return []
    dest, best = None, -np.inf
    for i in range(len(stops)):
        d0 = dist(pos[i], rv)
        profit = dem[i] - em_j_per_m * d0
        if em_j_per_m * d0 + dem[i] / charge_efficiency <= budget_j + 1e-9 and profit > best:
            dest, best = i, profit
    if dest is None:
        return []
    spent = em_j_per_m * dist(pos[dest], rv) + dem[dest] / charge_efficiency
    route = [dest]
    remaining = [i for i in range(len(stops)) if i != dest]
    while remaining and spent < budget_j:
        pick, best = None, -np.inf
        for s in range(len(route)):
            a = rv if s == 0 else pos[route[s - 1]]
            b = pos[route[s]]
            d_ab = dist(a, b)
            for c, n in enumerate(remaining):
                detour = dist(a, pos[n]) + dist(b, pos[n]) - d_ab
                p = dem[n] - em_j_per_m * detour
                extra = em_j_per_m * detour + dem[n] / charge_efficiency
                if p > 1e-12 and spent + extra <= budget_j + 1e-9 and p > best:
                    pick, best, pick_extra = (s, c), p, extra
        if pick is None:
            break
        route.insert(pick[0], remaining.pop(pick[1]))
        spent += pick_extra
    return route


# ----------------------------------------------------------------------
# re-aggregating chained planners
# ----------------------------------------------------------------------


def plan_single_rv(requests, rv):
    """One trimmed Algorithm 3 sequence over freshly aggregated stops."""
    from repro.core.insertion import build_insertion_sequence, expand_stops
    from repro.core.requests import aggregate_by_cluster
    from repro.core.scheduling import PlannedRoute

    stops = aggregate_by_cluster(requests)
    order = build_insertion_sequence(
        stops, rv.position, rv.budget_j, rv.em_j_per_m, rv.charge_efficiency
    )
    kept = list(order)
    route = None
    while kept:
        route = expand_stops(stops, kept, rv.position)
        cost = route.travel_m * rv.em_j_per_m + route.demand_j / rv.charge_efficiency
        if cost <= rv.budget_j + 1e-6:
            break
        kept.pop()
        route = None
    if route is None:
        return None
    return PlannedRoute(
        node_ids=route.node_ids,
        waypoints=route.waypoints,
        travel_m=route.travel_m,
        demand_j=route.demand_j,
        profit_j=route.demand_j - rv.em_j_per_m * route.travel_m,
    )


def plan_single_rv_chained(requests: list, rv):
    """Chained sequences, each over a re-aggregation of what is left;
    ``requests`` is consumed in place."""
    from repro.core.scheduling import PlannedRoute, RVView

    remaining = list(requests)
    position = rv.position
    budget = rv.budget_j
    chained_ids: List[int] = []
    waypoints = [np.asarray(position, dtype=np.float64).reshape(2)]
    total_travel = 0.0
    total_demand = 0.0
    while remaining and budget > 0:
        view = RVView(
            rv_id=rv.rv_id,
            position=position,
            budget_j=budget,
            em_j_per_m=rv.em_j_per_m,
            charge_efficiency=rv.charge_efficiency,
            depot=rv.depot,
        )
        plan = plan_single_rv(remaining, view)
        if plan is None or len(plan) == 0:
            break
        chained_ids.extend(plan.node_ids)
        waypoints.extend(plan.waypoints[1:])
        total_travel += plan.travel_m
        total_demand += plan.demand_j
        budget -= plan.travel_m * rv.em_j_per_m + plan.demand_j / rv.charge_efficiency
        position = plan.waypoints[-1]
        served = set(plan.node_ids)
        remaining = [r for r in remaining if r.node_id not in served]
    if not chained_ids:
        return None
    requests[:] = remaining
    return PlannedRoute(
        node_ids=tuple(chained_ids),
        waypoints=np.vstack(waypoints),
        travel_m=total_travel,
        demand_j=total_demand,
        profit_j=total_demand - rv.em_j_per_m * total_travel,
    )


def insertion_assign(requests, idle_rvs) -> dict:
    """InsertionScheduler / CombinedScheduler: each RV re-snapshots."""
    plans = {}
    for rv in idle_rvs:
        snapshot = requests.snapshot()
        if not snapshot:
            break
        plan = plan_single_rv_chained(snapshot, rv)
        if plan is None or len(plan) == 0:
            continue
        plans[rv.rv_id] = plan
        requests.remove_many(plan.node_ids)
    return plans


def partition_requests(positions, n_groups: int, rng) -> List[np.ndarray]:
    """The Partition-Scheme's K-means groups of ``positions`` as index
    arrays, empty groups dropped; fewer groups come back when there are
    fewer requests than ``n_groups``."""
    from repro.core.partition import _partition_labels

    if len(positions) == 0:
        return []
    labels, k = _partition_labels(positions, n_groups, rng)
    groups = [np.flatnonzero(labels == j) for j in range(k)]
    return [g for g in groups if len(g) > 0]


def partition_assign(fleet_size: int, requests, idle_rvs, rng) -> dict:
    """PartitionScheduler with the re-aggregating chained planner."""
    plans = {}
    if not idle_rvs or len(requests) == 0:
        return plans
    snapshot = requests.snapshot()
    positions = np.vstack([r.position for r in snapshot])
    groups = partition_requests(positions, fleet_size, rng)
    if not groups:
        return plans
    centroids = np.vstack([positions[g].mean(axis=0) for g in groups])
    unclaimed = list(range(len(groups)))
    for rv in idle_rvs:
        if not unclaimed:
            break
        dists = distances_from(rv.position, centroids[unclaimed])
        pick = unclaimed.pop(masked_argmin(dists))
        plan = plan_single_rv_chained([snapshot[i] for i in groups[pick]], rv)
        if plan is None or len(plan) == 0:
            continue
        plans[rv.rv_id] = plan
        requests.remove_many(plan.node_ids)
    return plans


def deadline_assign(now_s: float, urgency_age_s: float, requests, idle_rvs) -> dict:
    """DeadlineAwareScheduler: each RV re-snapshots and re-filters."""
    plans = {}
    for rv in idle_rvs:
        snapshot = requests.snapshot()
        if not snapshot:
            break
        urgent = [r for r in snapshot if now_s - r.release_time_s >= urgency_age_s]
        pool = urgent if urgent else snapshot
        plan = plan_single_rv_chained(list(pool), rv)
        if plan is None or len(plan) == 0:
            continue
        plans[rv.rv_id] = plan
        requests.remove_many(plan.node_ids)
    return plans


# ----------------------------------------------------------------------
# patch contexts
# ----------------------------------------------------------------------

_KERNEL_NAMES = (
    "profit_vector",
    "greedy_pick",
    "masked_argmax",
    "masked_argmax_2d",
    "masked_argmin",
    "insertion_eval",
    "uplink_etx_vector",
)


@contextlib.contextmanager
def reference_kernels():
    """Route every scheduling-kernel call site through the oracles.

    Schedulers reach the kernels as ``kernels.<name>`` attributes and
    the tours through the names their importers bound, so patching
    those attributes swaps the whole decision path.
    """
    import repro.core.kernels as kernels_mod
    from repro.sim.components import state as state_mod

    oracles = globals()
    with contextlib.ExitStack() as stack:
        # Worlds built inside the block derive their static network with
        # the oracle kernels, not from a network memoized outside it (and
        # leave none behind).
        state_mod._build_network.cache_clear()
        stack.callback(state_mod._build_network.cache_clear)
        for name in _KERNEL_NAMES:
            stack.enter_context(mock.patch.object(kernels_mod, name, oracles[name]))
        # The Partition-Scheme's K-means: the serial Lloyd loop over the
        # scalar assignment step.
        stack.enter_context(mock.patch("repro.core.partition.kmeans", kmeans_serial))
        stack.enter_context(
            mock.patch("repro.core.requests.nearest_neighbor_from", nearest_neighbor_order)
        )
        stack.enter_context(mock.patch("repro.core.extensions.two_opt", two_opt))
        yield


@contextlib.contextmanager
def reference_tick_paths():
    """Build worlds whose tick runs the per-cluster reference loops.

    Inside the block, newly built worlds get their activators from
    :class:`RoundRobinLoop` / :class:`FullTimeLoop` (through the
    registry's factories), gate requests through
    :func:`nodes_to_release` over the state's cluster set and the
    policy's ``erp``, and count relay packets with :func:`relay_walk`
    over the routing parents — no ancestor table is read, so the relay
    counts are checked independently.  The patch sits after the
    deployment memo (``energy.relay_index``, the world's view of the
    memoized ancestor table), so it neither reads nor fills the memo and
    worlds built after the block are untouched by it.  Yields a
    :class:`collections.Counter` of the oracle calls (``round_robin``,
    ``full_time`` builds, ``erc`` scans and ``relay`` walks), so a
    caller can check the loops really ran.
    """
    from repro.registry import ACTIVATORS
    from repro.sim.components.gate import RequestGate

    calls = collections.Counter()

    def loop_factory(name, cls):
        def build(cluster_set, arrays):
            calls[name] += 1
            return cls(cluster_set, arrays)

        return replace(ACTIVATORS.spec(name), factory=build)

    def release(gate_inputs, below, listed, out):
        calls["erc"] += 1
        erp, cluster_set = gate_inputs
        return nodes_to_release(erp, cluster_set, below, listed)

    def relay(origins, parent):
        calls["relay"] += 1
        return walk_relay_counts(origins, parent)

    with mock.patch.dict(ACTIVATORS._specs, {
        "round_robin": loop_factory("round_robin", RoundRobinLoop),
        "full_time": loop_factory("full_time", FullTimeLoop),
    }), mock.patch.object(
        # The oracle reads the policy's erp and the ClusterSet itself,
        # not the packed GateConstants.
        RequestGate, "_gate_constants", lambda gate: (gate.erc.erp, gate.s.cluster_set)
    ), mock.patch(
        "repro.sim.components.gate.erc_release", release
    ), mock.patch(
        "repro.sim.components.energy.relay_index",
        lambda state: np.asarray(state.routing.parent, dtype=np.int64),
    ), mock.patch(
        "repro.sim.components.energy.relay_counts", relay
    ):
        yield calls

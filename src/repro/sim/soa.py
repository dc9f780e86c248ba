"""The structure-of-arrays (SoA) tick engine.

PR 4 vectorized the scheduler *decision* loops; this module vectorizes
the **tick loop** itself.  Everything the periodic tick touches —
activation rotation, the ERC threshold scan, relay-load accumulation,
the per-tick coverage reduction and the battery advance — runs here
over flat aligned numpy arrays and boolean masks, so a 10k–100k-sensor
field steps at array speed instead of walking Python objects
sensor-by-sensor.  It is the only serial tick path.

Layout
------

:class:`StateArrays` is the one bundle of flat aligned arrays:

* per-sensor: ``positions`` (n, 2), ``levels_j`` (n,), ``rates_w``
  (n,), ``active`` (n,), ``requested`` (n,), ``cluster_id`` (n,) —
  aliases of the canonical buffers owned by the bank / components, so
  writing through either view is the same write;
* per-cluster: ``members`` (m, w) padded with ``-1``, ``sizes`` (m,),
  ``ptr`` (m,) — the rotation state in rectangular form;
* per-RV: ``rv_pos`` (k, 2), ``rv_level_j`` (k,), ``rv_busy`` (k,),
  ``rv_returning`` (k,) — fleet motion integrated per-RV over position
  arrays (kept write-through by the fleet component);
* preallocated scratch for the battery-advance and gate-scan steps, so
  the steady-state tick allocates **nothing** (the ``sim.soa.alloc``
  counter records every scratch (re)allocation; it must stay flat
  across ticks).

Exactness contract
------------------

Every kernel here selects the *same indices* with the same tie-breaks
as the per-cluster loops of :mod:`repro.core.activation` and
:mod:`repro.core.erc`, and then performs the identical IEEE-754
arithmetic per element.  Those classes stay in the library as the path
plugin activators and ERC policies that override ``nodes_to_release``
take (:func:`wrap_activator` and :func:`erc_scan_applicable` pick the
path from the object's type), and the tier-1 parity tests compare the
kernels against them.  Relay packet counts are integers, so the
level-order tree accumulation commutes bit-exactly with a per-origin
root-path walk (the test oracle in ``tests/oracles.py``).
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

import numpy as np

from ..core.activation import FullTimeActivator, RoundRobinActivator
from ..core.erc import EnergyRequestController

__all__ = [
    "StateArrays",
    "SoAFullTimeActivator",
    "SoARoundRobinActivator",
    "batch_enabled",
    "debug_batch",
    "erc_release_scan",
    "first_alive_slots",
    "pack_clusters",
    "relay_levels",
    "relay_accumulate",
    "wrap_activator",
]


def batch_enabled() -> bool:
    """The ``REPRO_BATCH`` opt-in for the batched multi-world engine
    (default: off — single-world runs keep the serial SoA loop)."""
    return os.environ.get("REPRO_BATCH", "") not in ("", "0", "false", "no")


def debug_batch() -> bool:
    """``REPRO_DEBUG_BATCH=1``: shadow every batched world with a
    serial twin and assert bit-equality after each batched tick."""
    return os.environ.get("REPRO_DEBUG_BATCH", "") not in ("", "0")


def engine_provenance() -> dict:
    """Which engine knobs are live — recorded in run manifests so a
    drift report can say which engine produced each run."""
    return {"batch": batch_enabled(), "batch_debug": debug_batch()}


class StateArrays:
    """Flat aligned arrays for one simulation, plus reusable scratch.

    Per-sensor views alias the canonical buffers (writing through the
    bank or through ``arrays.levels_j`` is the same write); per-cluster
    and per-RV blocks are owned here and refreshed by their components.

    Args:
        n_sensors: sensor population.
        n_rvs: fleet size.
        instruments: optional :class:`repro.obs.Instruments`; the
            ``sim.soa.alloc`` counter records every buffer
            (re)allocation so tests can prove the steady-state tick
            allocates nothing.
    """

    def __init__(self, n_sensors: int, n_rvs: int, instruments=None) -> None:
        from ..obs.instruments import NULL_INSTRUMENTS

        obs = instruments if instruments is not None else NULL_INSTRUMENTS
        self._c_alloc = obs.counter("sim.soa.alloc")
        self.n = int(n_sensors)
        # -- per-sensor aliases (bound by SimulationState / components) --
        self.positions: Optional[np.ndarray] = None
        self.levels_j: Optional[np.ndarray] = None
        self.rates_w: Optional[np.ndarray] = None
        self.active: Optional[np.ndarray] = None
        self.requested: Optional[np.ndarray] = None
        self.cluster_id: Optional[np.ndarray] = None
        # -- per-cluster rotation state (owned; see ensure_clusters) ----
        self.members = np.empty((0, 0), dtype=np.int64)
        self.sizes = np.empty(0, dtype=np.int64)
        self.ptr = np.empty(0, dtype=np.int64)
        # -- per-RV motion state (write-through from FleetController) ---
        self._c_alloc.inc(4)
        self.rv_pos = np.zeros((n_rvs, 2), dtype=np.float64)
        self.rv_level_j = np.zeros(n_rvs, dtype=np.float64)
        self.rv_busy = np.zeros(n_rvs, dtype=bool)
        self.rv_returning = np.zeros(n_rvs, dtype=bool)
        # -- preallocated scratch -----------------------------------------
        self._c_alloc.inc(3)
        self.drain_scratch = np.empty(self.n, dtype=np.float64)
        self.below_scratch = np.empty(self.n, dtype=bool)
        self.release_scratch = np.empty(self.n, dtype=bool)
        self._cluster_scratch: Tuple[np.ndarray, ...] = ()

    # -- cluster buffers ---------------------------------------------------

    def ensure_clusters(self, n_clusters: int, width: int) -> None:
        """Size the padded member matrix for a new cluster epoch.

        Buffers are reallocated only when the epoch needs *more* room
        (the alloc counter records it); a same-shape epoch reuses them.
        """
        if self.members.shape != (n_clusters, width):
            self._c_alloc.inc(3)
            self.members = np.full((n_clusters, width), -1, dtype=np.int64)
            self.sizes = np.zeros(n_clusters, dtype=np.int64)
            self.ptr = np.zeros(n_clusters, dtype=np.int64)
        else:
            self.members.fill(-1)
            self.sizes.fill(0)
            self.ptr.fill(0)
        if not self._cluster_scratch or self._cluster_scratch[0].shape != (
            n_clusters,
            width,
        ):
            self._c_alloc.inc(4)
            self._cluster_scratch = (
                np.empty((n_clusters, width), dtype=np.int64),
                np.empty((n_clusters, width), dtype=bool),
                np.arange(width, dtype=np.int64),
                np.arange(n_clusters, dtype=np.int64),
            )

    def needy_count_scratch(self, n_clusters: int) -> np.ndarray:
        """A reusable ``(m,)`` int64 buffer for per-cluster reductions."""
        buf = getattr(self, "_needy_scratch", None)
        if buf is None or buf.shape != (n_clusters,):
            self._c_alloc.inc()
            buf = np.empty(n_clusters, dtype=np.int64)
            self._needy_scratch = buf
        return buf


def pack_clusters(cluster_set, arrays: StateArrays) -> None:
    """Pack a :class:`~repro.core.clustering.ClusterSet` into the
    rectangular ``(members, sizes, ptr)`` block of ``arrays``.

    Members stay in their per-cluster sorted order (the rotation order
    of Section III-C); rows are padded with ``-1`` and the rotation
    pointers reset to slot 0, exactly as a fresh :class:`RoundRobinActivator`
    would start.
    """
    sizes = cluster_set.sizes()
    width = int(sizes.max()) if len(sizes) else 0
    arrays.ensure_clusters(len(cluster_set), width)
    arrays.sizes[:] = sizes
    for c in cluster_set:  # once per relocation epoch, not per tick
        if c.size:
            arrays.members[c.cluster_id, : c.size] = c.members
    arrays.cluster_id = cluster_set.membership


# --------------------------------------------------------------------------
# rotation kernels
# --------------------------------------------------------------------------


def _rotation_scores(
    members: np.ndarray,
    sizes: np.ndarray,
    start: np.ndarray,
    alive: np.ndarray,
    scratch=None,
) -> np.ndarray:
    """Rotation distance from ``start`` per member slot, ``w`` if dead.

    ``rel[c, j] = (j - start[c]) % size[c]`` for slots holding an alive
    member, the sentinel ``w`` (one past any real distance) for padded
    or depleted slots.  ``rel.argmin(axis=1)`` is then exactly the
    ``RoundRobinActivator._first_alive_from`` answer: the alive slot with the
    smallest wrapping distance at or after ``start``.  Distances within
    a row are distinct, so the argmin is unambiguous.

    With ``scratch`` (the :class:`StateArrays` cluster scratch tuple)
    the whole computation runs in preallocated ``(m, w)`` buffers.
    """
    m, w = members.shape
    if scratch is not None:
        rel, ok, offs, _rows = scratch
    else:
        rel = np.empty((m, w), dtype=np.int64)
        ok = np.empty((m, w), dtype=bool)
        offs = np.arange(w, dtype=np.int64)
    np.greater_equal(members, 0, out=ok)  # padding slots hold -1
    np.logical_and(ok, alive[np.where(ok, members, 0)], out=ok)
    np.subtract(offs[None, :], start[:, None], out=rel)
    np.remainder(rel, np.maximum(sizes, 1)[:, None], out=rel)
    np.logical_not(ok, out=ok)
    np.copyto(rel, w, where=ok)
    return rel


def first_alive_slots(
    members: np.ndarray,
    sizes: np.ndarray,
    start: np.ndarray,
    alive: np.ndarray,
    scratch=None,
) -> np.ndarray:
    """Per cluster: the first alive member *slot* at or after ``start``.

    The vectorized form of ``RoundRobinActivator._first_alive_from``:
    each row of ``members`` is scanned in wrapping rotation order from
    ``start``; the first slot whose member is alive wins, ``-1`` when
    the whole cluster is depleted (or empty).
    """
    m, w = members.shape
    if m == 0 or w == 0:
        return np.full(m, -1, dtype=np.int64)
    rel = _rotation_scores(members, sizes, start, alive, scratch)
    rows = scratch[3] if scratch is not None else np.arange(m, dtype=np.int64)
    slot = rel.argmin(axis=1)
    return np.where(rel[rows, slot] < w, slot, -1)


class SoARoundRobinActivator:
    """Array round-robin rotation, bit-exact to
    :class:`~repro.core.activation.RoundRobinActivator`.

    All per-cluster state lives in the ``(members, sizes, ptr)`` block
    of a :class:`StateArrays`; every query is a masked reduction over
    the padded member matrix.
    """

    rotates = True

    def __init__(self, cluster_set, arrays: StateArrays) -> None:
        self.cluster_set = cluster_set
        self.a = arrays
        if arrays.cluster_id is not cluster_set.membership:
            pack_clusters(cluster_set, arrays)  # not pre-packed by the caller
        # Memoized active_sensor_per_cluster: the answer is a pure
        # function of (members, sizes, ptr, alive) — members/sizes only
        # change on a rebuild (fresh activator), ptr only in rotate()
        # (which refreshes the cache), so comparing alive *content* is a
        # complete invalidation check and far cheaper than the scan.
        self._actives: Optional[np.ndarray] = None
        self._actives_alive: Optional[np.ndarray] = None

    # -- queries -----------------------------------------------------------

    def active_sensor_per_cluster(self, alive: np.ndarray) -> np.ndarray:
        a = self.a
        if self._actives is not None and np.array_equal(alive, self._actives_alive):
            return self._actives
        slots = first_alive_slots(
            a.members, a.sizes, a.ptr, alive, scratch=a._cluster_scratch
        )
        out = _members_at(a.members, slots, scratch=a._cluster_scratch)
        self._actives = out
        self._actives_alive = alive.copy()
        return out

    def active_mask(self, alive: np.ndarray) -> np.ndarray:
        mask = np.zeros(self.cluster_set.n_sensors, dtype=bool)
        actives = self.active_sensor_per_cluster(alive)
        mask[actives[actives >= 0]] = True
        return mask

    def covered_mask(self, alive: np.ndarray) -> np.ndarray:
        return self.active_sensor_per_cluster(alive) >= 0

    # -- rotation ----------------------------------------------------------

    def rotate(self, alive: np.ndarray) -> np.ndarray:
        """Advance every cluster's pointer one slot; returns the
        ``(k, 2)`` hand-off pairs in cluster-id order (the
        :class:`RoundRobinActivator` append order)."""
        a = self.a
        m, w = a.members.shape
        if m == 0 or w == 0:
            return np.empty((0, 2), dtype=np.int64)
        # One score pass answers both per-cluster scans: the current duty
        # holder is the distance argmin; masking it out, the runner-up
        # is the first alive member after it (wrapping), and a cluster
        # whose only alive member holds the duty keeps it (the
        # per-cluster walk comes back around to ``cur``).
        rel = _rotation_scores(a.members, a.sizes, a.ptr, alive, a._cluster_scratch)
        rows = a._cluster_scratch[3]
        cur = rel.argmin(axis=1)
        live = rel[rows, cur] < w
        rel[rows, cur] = w
        nxt = rel.argmin(axis=1)
        nxt = np.where(rel[rows, nxt] < w, nxt, cur)
        cur = np.where(live, cur, -1)
        nxt = np.where(live, nxt, -1)
        # Reference pointer update: nxt if alive successor else stay on
        # cur; clusters with no alive member keep their old pointer.
        a.ptr[live] = nxt[live]
        moved = live & (nxt != cur)
        idx = np.flatnonzero(moved)
        if idx.size:
            handoffs = np.stack(
                [
                    a.members[idx, cur[idx]],
                    a.members[idx, nxt[idx]],
                ],
                axis=1,
            )
        else:
            handoffs = np.empty((0, 2), dtype=np.int64)
        # Refresh the memo for the alive mask just rotated under: live
        # clusters now point at their (alive) duty holder.
        self._actives = _members_at(
            a.members,
            np.where(live, a.ptr, -1),
            scratch=a._cluster_scratch,
        )
        self._actives_alive = alive.copy()
        return handoffs


class SoAFullTimeActivator:
    """Array full-time activation, bit-exact to
    :class:`~repro.core.activation.FullTimeActivator`."""

    rotates = False

    def __init__(self, cluster_set, arrays: StateArrays) -> None:
        self.cluster_set = cluster_set
        self.a = arrays
        if arrays.cluster_id is not cluster_set.membership:
            pack_clusters(cluster_set, arrays)  # not pre-packed by the caller
        # Same memo as the round-robin twin, minus the rotation hook:
        # full-time duty has no pointer, so (members, alive) is the
        # whole dependency set.
        self._actives: Optional[np.ndarray] = None
        self._actives_alive: Optional[np.ndarray] = None

    def active_mask(self, alive: np.ndarray) -> np.ndarray:
        return self.cluster_set.clustered_mask() & alive

    def active_sensor_per_cluster(self, alive: np.ndarray) -> np.ndarray:
        a = self.a
        if self._actives is not None and np.array_equal(alive, self._actives_alive):
            return self._actives
        zeros = np.zeros(len(a.sizes), dtype=np.int64)
        out = _members_at(
            a.members,
            first_alive_slots(
                a.members, a.sizes, zeros, alive, scratch=a._cluster_scratch
            ),
            scratch=a._cluster_scratch,
        )
        self._actives = out
        self._actives_alive = alive.copy()
        return out

    def covered_mask(self, alive: np.ndarray) -> np.ndarray:
        return self.active_sensor_per_cluster(alive) >= 0

    def rotate(self, alive: np.ndarray) -> np.ndarray:
        return np.empty((0, 2), dtype=np.int64)


def _members_at(members: np.ndarray, slots: np.ndarray, scratch=None) -> np.ndarray:
    """Gather ``members[c, slots[c]]`` rowwise; ``-1`` slots stay -1."""
    if members.shape[1] == 0:
        return np.full(len(slots), -1, dtype=np.int64)
    rows = (
        scratch[3]
        if scratch is not None
        else np.arange(members.shape[0], dtype=np.int64)
    )
    picked = members[rows, np.maximum(slots, 0)]
    return np.where(slots >= 0, picked, -1)


def wrap_activator(activator, arrays: StateArrays):
    """Swap a freshly built built-in activator for its SoA equivalent.

    Only the two built-in schemes have array twins; anything else (a
    plugin activator) runs its own code unchanged.  Called by the
    cluster manager on every rebuild, so the rotation state starts from
    slot 0 exactly like a freshly built activator.
    """
    if type(activator) is RoundRobinActivator:
        return SoARoundRobinActivator(activator.cluster_set, arrays)
    if type(activator) is FullTimeActivator:
        return SoAFullTimeActivator(activator.cluster_set, arrays)
    return activator


# --------------------------------------------------------------------------
# ERC gate scan
# --------------------------------------------------------------------------


def erc_release_scan(
    membership: np.ndarray,
    sizes: np.ndarray,
    below: np.ndarray,
    listed: np.ndarray,
    erp: float,
    arrays: StateArrays,
) -> List[int]:
    """Array form of the ERC gate: sensors allowed to request *now*.

    Per cluster the needy count (``below`` members, listed or not) is
    one scatter-add into the preallocated ``arrays`` scratch; a cluster
    releases every needy non-listed member iff the count reaches
    ``max(ceil(nc * K), 1)``; unclustered needy sensors always release.
    Output is ascending sensor ids — exactly
    ``EnergyRequestController.nodes_to_release``'s ``sorted(release)``.
    """
    m = len(sizes)
    clustered = membership >= 0
    needy = below & clustered
    counts = arrays.needy_count_scratch(m)
    counts.fill(0)
    np.add.at(counts, membership[needy], 1)
    # Same elementwise arithmetic as release_count_needed: nc * K is one
    # float64 multiply either way, then ceil, then the floor of 1.
    need = np.maximum(np.ceil(sizes * erp).astype(np.int64), 1)
    open_gate = counts >= need
    release = np.logical_and(below, ~listed, out=arrays.release_scratch)
    if m:  # a zero-cluster epoch leaves every sensor unclustered
        release &= ~clustered | open_gate[np.maximum(membership, 0)]
    return [int(s) for s in np.flatnonzero(release)]


def erc_scan_applicable(erc) -> bool:
    """The array scan replays exactly the *base* gate semantics; a
    policy that overrides ``nodes_to_release`` keeps its own code."""
    return (
        type(erc).nodes_to_release is EnergyRequestController.nodes_to_release
    )


# --------------------------------------------------------------------------
# relay-load accumulation
# --------------------------------------------------------------------------


def relay_levels(parent: np.ndarray, dist: np.ndarray, base: int, n: int) -> List[np.ndarray]:
    """Hop-depth level schedule for the relay tree accumulation.

    Vertices are grouped by hop count from the base, deepest level
    first, excluding the base and disconnected vertices.  Computed once
    per routing tree (the topology is static).
    """
    order = np.argsort(dist, kind="stable")
    hops = np.full(len(parent), -1, dtype=np.int64)
    hops[base] = 0
    for v in order:
        p = parent[v]
        if p >= 0 and hops[p] >= 0:
            hops[v] = hops[p] + 1
    hops[base] = -1  # the base never forwards
    max_hop = int(hops.max()) if len(hops) else 0
    return [
        np.flatnonzero(hops == d) for d in range(max_hop, 0, -1)
    ]


def relay_accumulate(
    cnt: np.ndarray, parent: np.ndarray, levels: List[np.ndarray]
) -> None:
    """Push integer packet counts down the routing tree, level by level.

    Bit-exact to any walk that adds each vertex's count to its parent
    after all its children's: counts are int64, integer addition is
    associative, and every vertex's count is final before its level is
    pushed (children sit strictly deeper than their parents in a
    shortest-path tree).  ``cnt`` is modified in place.
    """
    for lvl in levels:
        np.add.at(cnt, parent[lvl], cnt[lvl])

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
  ``ptr`` (m,) — the rotation state in rectangular form — plus the
  :class:`ClusterIndex` derived from them once per cluster epoch;
* per-RV: ``rv_pos`` (k, 2), ``rv_level_j`` (k,), ``rv_busy`` (k,),
  ``rv_returning`` (k,) — fleet motion integrated per-RV over position
  arrays (kept write-through by the fleet component);
* preallocated scratch for the battery-advance, gate-scan and rotation
  steps.  The ``sim.soa.alloc`` counter records every scratch
  (re)allocation and stays flat across steady-state ticks, which proves
  the scratch is reused; the kernels still allocate their small
  temporaries (gathers, masks, the release list).

Relay load
----------

A sensor relays every packet that originates in its routing subtree.
:func:`subtree_index` lays the static tree out in DFS preorder once, so
each sensor's subtree is one contiguous range ``[tin, tout)``, and
:func:`subtree_counts` turns an origin mask into every sensor's
through count with one ``cumsum`` and two gathers.  Counts are int64,
so the result is exact whatever the summation order.  The batched
engine runs the same kernel over its worlds' concatenated preorders.

Exactness contract
------------------

Every kernel here selects the *same indices* with the same tie-breaks
as the per-cluster loops of :mod:`repro.core.activation` and
:mod:`repro.core.erc`, and then performs the identical IEEE-754
arithmetic per element.  Those classes stay in the library as the path
plugin activators and ERC policies that override ``nodes_to_release``
take (:func:`wrap_activator` and :func:`erc_scan_applicable` pick the
path from the object's type), and the tier-1 parity tests compare the
kernels against them.  The relay counts are compared against a
per-origin root-path walk (the test oracle in ``tests/oracles.py``).
"""

from __future__ import annotations

import os
from typing import List, NamedTuple, Optional

import numpy as np

from ..core.activation import FullTimeActivator, RoundRobinActivator
from ..core.erc import EnergyRequestController

__all__ = [
    "ClusterIndex",
    "StateArrays",
    "SoAFullTimeActivator",
    "SoARoundRobinActivator",
    "SubtreeIndex",
    "batch_enabled",
    "debug_batch",
    "erc_release_scan",
    "first_alive_slots",
    "pack_clusters",
    "subtree_counts",
    "subtree_index",
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


class ClusterIndex(NamedTuple):
    """Per-epoch views of the padded member matrix, plus rotation scratch.

    ``valid``, ``ids`` and ``modulus`` depend only on ``(members,
    sizes)``, so :func:`pack_clusters` derives them once per cluster
    epoch and every rotation query reuses them.  All rotation buffers
    are O(m·w).
    """

    valid: np.ndarray  # (m, w) bool: the slot holds a member
    ids: np.ndarray  # (m, w) int64: members, padding clamped to 0 (gather-safe)
    modulus: np.ndarray  # (m, 1) int64: max(size, 1), the rotation wrap
    offs: np.ndarray  # (w,) slot numbers
    rows: np.ndarray  # (m,) cluster numbers
    rel: np.ndarray  # (m, w) int64 scratch: rotation distances
    dead: np.ndarray  # (m, w) bool scratch: slots that cannot hold the duty

    @classmethod
    def empty(cls, m: int, w: int) -> "ClusterIndex":
        return cls(
            valid=np.empty((m, w), dtype=bool),
            ids=np.empty((m, w), dtype=np.int64),
            modulus=np.empty((m, 1), dtype=np.int64),
            offs=np.arange(w, dtype=np.int64),
            rows=np.arange(m, dtype=np.int64),
            rel=np.empty((m, w), dtype=np.int64),
            dead=np.empty((m, w), dtype=bool),
        )

    def refresh(self, members: np.ndarray, sizes: np.ndarray) -> "ClusterIndex":
        """Re-derive the views from a freshly packed member matrix."""
        np.greater_equal(members, 0, out=self.valid)  # padding slots hold -1
        np.maximum(members, 0, out=self.ids)
        np.maximum(sizes[:, None], 1, out=self.modulus)
        return self


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
            (re)allocation so tests can prove steady-state ticks reuse
            the scratch instead of reallocating it.
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
        self.cluster_index = ClusterIndex.empty(0, 0)
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

    # -- cluster buffers ---------------------------------------------------

    def ensure_clusters(self, n_clusters: int, width: int) -> None:
        """Size the padded member matrix for a new cluster epoch.

        Buffers (and the :class:`ClusterIndex`) are reallocated only
        when the epoch changes their shape (the alloc counter records
        it); a same-shape epoch reuses them.
        """
        if self.members.shape != (n_clusters, width):
            self._c_alloc.inc(10)
            self.members = np.full((n_clusters, width), -1, dtype=np.int64)
            self.sizes = np.zeros(n_clusters, dtype=np.int64)
            self.ptr = np.zeros(n_clusters, dtype=np.int64)
            self.cluster_index = ClusterIndex.empty(n_clusters, width)
        else:
            self.members.fill(-1)
            self.sizes.fill(0)
            self.ptr.fill(0)


def pack_clusters(cluster_set, arrays: StateArrays) -> None:
    """Pack a :class:`~repro.core.clustering.ClusterSet` into the
    rectangular ``(members, sizes, ptr)`` block of ``arrays``.

    Members stay in their per-cluster sorted order (the rotation order
    of Section III-C); rows are padded with ``-1`` and the rotation
    pointers reset to slot 0, exactly as a fresh :class:`RoundRobinActivator`
    would start.  The epoch's :class:`ClusterIndex` is derived here.
    """
    sizes = cluster_set.sizes()
    width = int(sizes.max()) if len(sizes) else 0
    arrays.ensure_clusters(len(cluster_set), width)
    arrays.sizes[:] = sizes
    for c in cluster_set:  # once per relocation epoch, not per tick
        if c.size:
            arrays.members[c.cluster_id, : c.size] = c.members
    arrays.cluster_index.refresh(arrays.members, arrays.sizes)
    arrays.cluster_id = cluster_set.membership


# --------------------------------------------------------------------------
# rotation kernels
# --------------------------------------------------------------------------


def _rotation_scores(
    start: np.ndarray, alive: np.ndarray, ix: ClusterIndex
) -> np.ndarray:
    """Rotation distance from ``start`` per member slot, ``w`` if dead.

    ``rel[c, j] = (j - start[c]) % size[c]`` for slots holding an alive
    member, the sentinel ``w`` (one past any real distance) for padded
    or depleted slots.  ``rel.argmin(axis=1)`` is then exactly the
    ``RoundRobinActivator._first_alive_from`` answer: the alive slot with the
    smallest wrapping distance at or after ``start``.  Distances within
    a row are distinct, so the argmin is unambiguous.  The result is
    written into (and aliases) ``ix.rel``.  The batched engine calls it
    on its flattened ``(B * m, w)`` index, whose ``ids`` address one
    flat ``(B * n)`` alive mask.
    """
    rel, dead = ix.rel, ix.dead
    np.logical_and(ix.valid, alive[ix.ids], out=dead)
    np.logical_not(dead, out=dead)
    np.subtract(ix.offs, start[:, None], out=rel)
    np.remainder(rel, ix.modulus, out=rel)
    np.copyto(rel, rel.shape[1], where=dead)
    return rel


def first_alive_slots(
    members: np.ndarray,
    sizes: np.ndarray,
    start: np.ndarray,
    alive: np.ndarray,
    index: Optional[ClusterIndex] = None,
) -> np.ndarray:
    """Per cluster: the first alive member *slot* at or after ``start``.

    The vectorized form of ``RoundRobinActivator._first_alive_from``:
    each row of ``members`` is scanned in wrapping rotation order from
    ``start``; the first slot whose member is alive wins, ``-1`` when
    the whole cluster is depleted (or empty).  ``index`` is the
    epoch's :class:`ClusterIndex` (derived here when omitted).
    """
    m, w = members.shape
    if m == 0 or w == 0:
        return np.full(m, -1, dtype=np.int64)
    ix = index if index is not None else ClusterIndex.empty(m, w).refresh(members, sizes)
    rel = _rotation_scores(start, alive, ix)
    slot = rel.argmin(axis=1)
    return np.where(rel[ix.rows, slot] < w, slot, -1)


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
        ix = a.cluster_index
        out = _members_at(
            a.members, first_alive_slots(a.members, a.sizes, a.ptr, alive, ix), ix
        )
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
        # per-cluster walk comes back around to ``cur``).  A cluster
        # with no alive member has cur == nxt == 0 and is not live.
        ix = a.cluster_index
        rows = ix.rows
        rel = _rotation_scores(a.ptr, alive, ix)
        cur = rel.argmin(axis=1)
        live = rel[rows, cur] < w
        rel[rows, cur] = w
        nxt = rel.argmin(axis=1)
        nxt = np.where(rel[rows, nxt] < w, nxt, cur)
        # Reference pointer update: nxt if alive successor else stay on
        # cur; clusters with no alive member keep their old pointer.
        a.ptr[live] = nxt[live]
        idx = (live & (nxt != cur)).nonzero()[0]
        handoffs = np.empty((len(idx), 2), dtype=np.int64)
        handoffs[:, 0] = a.members[idx, cur[idx]]
        handoffs[:, 1] = a.members[idx, nxt[idx]]
        # Refresh the memo for the alive mask just rotated under: live
        # clusters now point at their (alive) duty holder.
        self._actives = np.where(live, a.members[rows, a.ptr], -1)
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
        ix = a.cluster_index
        zeros = np.zeros(len(a.sizes), dtype=np.int64)
        out = _members_at(
            a.members, first_alive_slots(a.members, a.sizes, zeros, alive, ix), ix
        )
        self._actives = out
        self._actives_alive = alive.copy()
        return out

    def covered_mask(self, alive: np.ndarray) -> np.ndarray:
        return self.active_sensor_per_cluster(alive) >= 0

    def rotate(self, alive: np.ndarray) -> np.ndarray:
        return np.empty((0, 2), dtype=np.int64)


def _members_at(members: np.ndarray, slots: np.ndarray, ix: ClusterIndex) -> np.ndarray:
    """Gather ``members[c, slots[c]]`` rowwise; ``-1`` slots stay -1."""
    if members.shape[1] == 0:
        return np.full(len(slots), -1, dtype=np.int64)
    return np.where(slots >= 0, members[ix.rows, np.maximum(slots, 0)], -1)


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
    one ``bincount``; a cluster releases every needy non-listed member
    iff the count reaches ``max(ceil(nc * K), 1)``; unclustered needy
    sensors always release.  Output is ascending sensor ids — exactly
    ``EnergyRequestController.nodes_to_release``'s ``sorted(release)``.
    """
    m = len(sizes)
    clustered = membership >= 0
    counts = np.bincount(membership[below & clustered], minlength=m)
    # Same elementwise arithmetic as release_count_needed: nc * K is one
    # float64 multiply either way, then ceil, then the floor of 1.
    need = np.maximum(np.ceil(sizes * erp).astype(np.int64), 1)
    open_gate = counts >= need
    release = np.logical_and(below, ~listed, out=arrays.release_scratch)
    if m:  # a zero-cluster epoch leaves every sensor unclustered
        release &= ~clustered | open_gate[np.maximum(membership, 0)]
    return release.nonzero()[0].tolist()


def erc_scan_applicable(erc) -> bool:
    """The array scan replays exactly the *base* gate semantics; a
    policy that overrides ``nodes_to_release`` keeps its own code."""
    return (
        type(erc).nodes_to_release is EnergyRequestController.nodes_to_release
    )


# --------------------------------------------------------------------------
# relay load
# --------------------------------------------------------------------------


class SubtreeIndex(NamedTuple):
    """A static routing tree laid out in DFS preorder.

    Sensor ``v``'s subtree is ``pre[tin[v]:tout[v]]``; sensors with no
    route to the base have the empty range ``tin == tout == 0``.
    """

    pre: np.ndarray  # (r,) the r reachable sensors in preorder
    tin: np.ndarray  # (n,) int64 start of each subtree range
    tout: np.ndarray  # (n,) int64 end (exclusive) of each subtree range
    cs: np.ndarray  # (r + 1,) int64 prefix-sum scratch, cs[0] == 0


def subtree_index(parent: np.ndarray, base: int, n: int) -> SubtreeIndex:
    """DFS preorder and subtree ranges of the routing tree ``parent``.

    ``parent`` holds each vertex's next hop toward ``base`` (``-1`` at
    the base and at disconnected vertices); the ``n`` sensors are the
    vertices other than the base.  Children are visited in ascending id
    order.  Computed once per routing tree (the topology is static).
    """
    parent = np.asarray(parent, dtype=np.int64)
    # Children of every vertex in ascending id order, as CSR rows.
    kids = np.flatnonzero(parent >= 0)
    kids = kids[np.argsort(parent[kids], kind="stable")]
    bounds = np.searchsorted(parent[kids], np.arange(len(parent) + 1)).tolist()
    kids = kids.tolist()
    pre: List[int] = []
    stack = kids[bounds[base] : bounds[base + 1]][::-1]
    while stack:
        v = stack.pop()
        pre.append(v)
        stack.extend(kids[bounds[v] : bounds[v + 1]][::-1])
    # Subtree sizes, children before parents (reverse preorder).
    up = parent.tolist()
    size = [1] * len(up)
    for v in reversed(pre):
        size[up[v]] += size[v]
    order = np.asarray(pre, dtype=np.int64)
    tin = np.zeros(n, dtype=np.int64)
    tin[order] = np.arange(len(order), dtype=np.int64)
    tout = tin.copy()
    tout[order] += np.asarray(size, dtype=np.int64)[order]
    return SubtreeIndex(order, tin, tout, np.zeros(len(order) + 1, dtype=np.int64))


def subtree_counts(origins: np.ndarray, index: SubtreeIndex) -> np.ndarray:
    """Per sensor: the ``origins`` in its routing subtree.

    That is the sensor's own packet (if it originates one) plus every
    packet it relays toward the base.  One ``cumsum`` over the origins
    in preorder, then each count is the difference of two prefix sums.
    The counts are int64, so they are exact in any summation order.
    """
    cs = index.cs
    origins[index.pre].cumsum(out=cs[1:])
    return cs[index.tout] - cs[index.tin]

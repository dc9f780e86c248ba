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
  (n,), ``active`` (n,), ``alive`` (n,), ``requested`` (n,),
  ``cluster_id`` (n,) — aliases of the canonical buffers owned by the
  bank / components, so writing through either view is the same write;
* per-cluster: ``members`` (m, w) padded with ``-1``, ``sizes`` (m,),
  ``ptr`` (m,) — the rotation state in rectangular form — plus the
  :class:`ClusterIndex` derived from them once per cluster epoch and
  the integer ``cluster_epoch`` that :func:`pack_clusters` bumps;
* per-RV: ``rv_pos`` (k, 2), ``rv_level_j`` (k,), ``rv_busy`` (k,),
  ``rv_returning`` (k,) — fleet motion integrated per-RV over position
  arrays (kept write-through by the fleet component);
* preallocated scratch for the battery-advance, gate-scan and rotation
  steps.  Every buffer stays the same object across steady-state ticks
  (pinned by the allocation-discipline test), which proves the scratch
  is reused; the kernels still allocate their small temporaries
  (gathers, masks, the release list).

Alive-set state
---------------

Rotation, coverage and the ERC gate only change their answers when a
sensor dies, is recharged or the clusters re-form, so the tick derives
them once per alive set instead of once per call:

* the alive mask itself is ``arrays.alive``, kept current by
  :class:`~repro.sim.components.energy.EnergyAccounting` (re-derived
  after a drain with deaths and in every recompute, which every other
  level write precedes) and read by rotation, the active mask and the
  metrics;
* the array activators build a :class:`RotationTable` per alive set:
  ``(m, w)`` tables of the duty holder from every start slot and the
  slot the pointer moves to, so :meth:`RoundRobinActivator.rotate`
  is a handful of gathers at ``ptr``.  Tables and the duty memo are
  keyed on ``alive.tobytes()``, exact for any caller's mask;
* per-epoch consumers key on the integer ``cluster_epoch``, never on
  ``id()`` of an array (ids recur once an array is collected): the
  world's coverage metrics per ``(alive set, epoch)``, the request
  gate's scan skip per ``(below, requested, erp, epoch)`` and its
  :class:`GateConstants` per ``(epoch, erp)``;
* the gate constants are the parts of the ERC scan that depend only on
  the clusters and the ERP: each sensor's bin (its cluster id, or one
  extra bin ``m`` shared by the unclustered sensors) and each bin's
  release quorum (``max(ceil(nc * K), 1)`` per cluster, 0 for the
  unclustered bin, which is therefore always open).
  :func:`erc_gate_constants` derives them and :func:`erc_release` runs
  the per-scan part, so a scan at a known ``(epoch, erp)`` starts from
  the threshold mask.

Relay load
----------

A sensor relays every packet that originates in its strict routing
subtree, i.e. every packet whose origin has it as an ancestor.
:func:`repro.network.routing.ancestor_table` lists each sensor's
strict ancestors once per deployment (a row per sensor, padded with
``n``; ~72 KB at N = 500, depth 18), and :func:`relay_counts` turns an
origin mask into every sensor's relayed count with one gather of the
origins' rows and one ``bincount``.  A tick has one origin per cluster
(15 at the paper's scale), so this pays for the origins, not for the
``n`` sensors a prefix sum over the whole tree would touch.  Counts are
int64, so the result is exact whatever the summation order.

Exactness contract
------------------

The array classes here are the simulator's only activators and
:func:`erc_release` its only ERC scan.  Each selects the *same indices*
with the same tie-breaks as a plain per-cluster loop and then performs
the identical IEEE-754 arithmetic per element.  Those loops live in
``tests/oracles.py`` as the executable specification: the tier-1
parity tests compare the kernels against them, and whole runs on the
array path against runs with the loops patched in.  The relay counts
are compared against a per-origin root-path walk there too.  Plugin
activators follow the protocol documented at
:data:`repro.registry.ACTIVATORS`.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

import numpy as np


__all__ = [
    "ClusterIndex",
    "FullTimeActivator",
    "GateConstants",
    "RotationTable",
    "RoundRobinActivator",
    "StateArrays",
    "erc_gate_constants",
    "erc_release",
    "pack_clusters",
    "relay_counts",
    "rotation_table",
]


class ClusterIndex(NamedTuple):
    """Per-epoch views of the padded member matrix.

    ``valid`` and ``ids`` depend only on ``members``, so
    :func:`pack_clusters` derives them once per cluster epoch and
    :func:`rotation_table` reads them on every new alive set.  All
    buffers are O(m·w).
    """

    valid: np.ndarray  # (m, w) bool: the slot holds a member
    ids: np.ndarray  # (m, w) int64: members, padding clamped to 0 (gather-safe)
    offs: np.ndarray  # (w,) slot numbers
    rows: np.ndarray  # (m,) cluster numbers

    @classmethod
    def empty(cls, m: int, w: int) -> "ClusterIndex":
        return cls(
            valid=np.empty((m, w), dtype=bool),
            ids=np.empty((m, w), dtype=np.int64),
            offs=np.arange(w, dtype=np.int64),
            rows=np.arange(m, dtype=np.int64),
        )

    def refresh(self, members: np.ndarray) -> "ClusterIndex":
        """Re-derive the views from a freshly packed member matrix."""
        np.greater_equal(members, 0, out=self.valid)  # padding slots hold -1
        np.maximum(members, 0, out=self.ids)
        return self


class StateArrays:
    """Flat aligned arrays for one simulation, plus reusable scratch.

    Per-sensor views alias the canonical buffers (writing through the
    bank or through ``arrays.levels_j`` is the same write); per-cluster
    and per-RV blocks are owned here and refreshed by their components.

    Args:
        n_sensors: sensor population.
        n_rvs: fleet size.
    """

    def __init__(self, n_sensors: int, n_rvs: int) -> None:
        self.n = int(n_sensors)
        # -- per-sensor aliases (bound by SimulationState / components) --
        self.positions: Optional[np.ndarray] = None
        self.levels_j: Optional[np.ndarray] = None
        self.rates_w: Optional[np.ndarray] = None
        self.active: Optional[np.ndarray] = None
        self.alive: Optional[np.ndarray] = None
        # ``alive.tobytes()``, refreshed by the mask's one writer (the
        # energy component) whenever it rewrites the mask.
        self.alive_key: Optional[bytes] = None
        self.requested: Optional[np.ndarray] = None
        self.cluster_id: Optional[np.ndarray] = None
        # -- per-cluster rotation state (owned; see ensure_clusters) ----
        self.members = np.empty((0, 0), dtype=np.int64)
        self.sizes = np.empty(0, dtype=np.int64)
        self.ptr = np.empty(0, dtype=np.int64)
        self.cluster_index = ClusterIndex.empty(0, 0)
        # Bumped by every pack_clusters: the identity of the cluster
        # epoch, for memo keys (ids of arrays are reused after GC).
        self.cluster_epoch = 0
        # -- per-RV motion state (write-through from FleetController) ---
        self.rv_pos = np.zeros((n_rvs, 2), dtype=np.float64)
        self.rv_level_j = np.zeros(n_rvs, dtype=np.float64)
        self.rv_busy = np.zeros(n_rvs, dtype=bool)
        self.rv_returning = np.zeros(n_rvs, dtype=bool)
        # -- preallocated scratch -----------------------------------------
        self.drain_scratch = np.empty(self.n, dtype=np.float64)
        self.below_scratch = np.empty(self.n, dtype=bool)
        self.release_scratch = np.empty(self.n, dtype=bool)

    # -- cluster buffers ---------------------------------------------------

    def ensure_clusters(self, n_clusters: int, width: int) -> None:
        """Size the padded member matrix for a new cluster epoch.

        Buffers (and the :class:`ClusterIndex`) are reallocated only
        when the epoch changes their shape; a same-shape epoch reuses
        them.
        """
        if self.members.shape != (n_clusters, width):
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
    pointers reset to slot 0, so the rotation starts from the lowest
    ID.  The epoch's :class:`ClusterIndex` is derived here.
    """
    sizes = cluster_set.sizes()
    width = int(sizes.max()) if len(sizes) else 0
    arrays.ensure_clusters(len(cluster_set), width)
    arrays.sizes[:] = sizes
    for c in cluster_set:  # once per relocation epoch, not per tick
        if c.size:
            arrays.members[c.cluster_id, : c.size] = c.members
    arrays.cluster_index.refresh(arrays.members)
    arrays.cluster_id = cluster_set.membership
    arrays.cluster_epoch += 1


# --------------------------------------------------------------------------
# rotation kernels
# --------------------------------------------------------------------------


class RotationTable(NamedTuple):
    """Where the duty goes from every start slot, for one alive set.

    ``cur[c, j]`` is the member holding cluster ``c``'s duty when its
    pointer sits at slot ``j``: the first alive member at or after
    ``j`` in wrapping rotation order, ``-1`` in a row with no alive
    member.  ``nxt[c, j]`` is the slot the pointer moves to from ``j``:
    the first alive slot after the duty holder's (wrapping), the
    holder's own slot when it is the row's only alive member, and ``j``
    itself in a row with no alive member (its pointer stays).  The
    table is built once per alive set; every rotation and duty query
    under that set is a gather at the flat position ``base + ptr``.
    """

    cur: np.ndarray  # (m, w) int64 duty-holder member ids, -1 in dead rows
    nxt: np.ndarray  # (m, w) int64 next pointer slot
    pairs: np.ndarray  # (m * w, 2) int64 (holder, successor) ids per flat slot
    hand: np.ndarray  # (k,) int64 rows with >= 2 alive members, ascending
    base: np.ndarray  # (m,) int64 flat offset of each row, c * w
    flat_cur: np.ndarray  # (m * w,) cur, flat
    flat_nxt: np.ndarray  # (m * w,) nxt, flat
    succ: np.ndarray  # (m * w,) the successor column of pairs, contiguous


def rotation_table(
    members: np.ndarray, alive: np.ndarray, ix: ClusterIndex
) -> RotationTable:
    """Build the :class:`RotationTable` of ``members`` under ``alive``.

    A reversed ``np.minimum.accumulate`` over the alive slot numbers
    gives the next alive slot at or after each ``j``; slots past a
    row's last alive member wrap to its first (a depleted member never
    acknowledges the notification, so the duty skips it).  The successor of the
    duty holder at ``j`` is the same array shifted by one slot (the
    last slot wrapping to the first) and gathered at the holder's slot.
    O(m·w) work and memory.
    """
    m, w = members.shape
    ok = np.logical_and(ix.valid, alive[ix.ids])
    at = np.where(ok, ix.offs, w)  # alive slots hold their number, the rest w
    at = np.minimum.accumulate(at[:, ::-1], axis=1)[:, ::-1]
    first = at[:, :1]  # first alive slot of each row, w if none
    live = first[:, 0] < w
    slot = np.where(at < w, at, first)
    slot[~live] = 0  # gather-safe; dead rows never hand off
    nxt = np.take_along_axis(np.roll(slot, -1, axis=1), slot, axis=1)
    nxt[~live] = ix.offs  # dead rows keep their pointer
    cur = np.where(live[:, None], np.take_along_axis(members, slot, axis=1), -1)
    succ = np.take_along_axis(cur, nxt, axis=1)
    pairs = np.stack([cur, succ], axis=-1)
    hand = np.flatnonzero(np.count_nonzero(ok, axis=1) >= 2)
    return RotationTable(
        cur, nxt, pairs.reshape(m * w, 2), hand, ix.rows * w,
        cur.ravel(), nxt.ravel(), succ.ravel(),
    )


class _SoAActivator:
    """Shared state of the array activators: the packed cluster block,
    the rotation table of the last alive set and the duty memo.

    Both caches are keyed on ``alive.tobytes()``: the key is the mask's
    exact content, so any caller's mask (a fresh one in the parity
    tests, the energy component's own buffer in a run) hits or misses
    correctly.  For the tick's own mask, ``arrays.alive``, the key is
    ``arrays.alive_key``, taken once by the energy component whenever
    it rewrites the mask.  The cluster epoch needs no key — a rebuild
    makes a fresh activator.
    """

    rotates: bool

    def __init__(self, cluster_set, arrays: StateArrays) -> None:
        self.cluster_set = cluster_set
        self.a = arrays
        if arrays.cluster_id is not cluster_set.membership:
            pack_clusters(cluster_set, arrays)  # not pre-packed by the caller
        self._table: Optional[RotationTable] = None
        self._table_key: Optional[bytes] = None
        # Memoized active_sensor_per_cluster for the alive set in
        # ``_actives_key``.  The round-robin answer also depends on the
        # pointers, which only rotate() moves (and it refreshes the memo).
        self._actives: Optional[np.ndarray] = None
        self._actives_key: Optional[bytes] = None

    def rotation_table(self, alive: np.ndarray, key: Optional[bytes] = None) -> RotationTable:
        """The :class:`RotationTable` for ``alive``, built on a new alive set."""
        if key is None:
            key = alive.tobytes()
        if key != self._table_key:
            self._table = rotation_table(self.a.members, alive, self.a.cluster_index)
            self._table_key = key
        return self._table

    def _key(self, alive: np.ndarray) -> bytes:
        """``alive.tobytes()``, read from the arrays for their own mask."""
        a = self.a
        return a.alive_key if alive is a.alive else alive.tobytes()

    def active_sensor_per_cluster(self, alive: np.ndarray) -> np.ndarray:
        """The sensor monitoring each target right now (-1 if none alive)."""
        key = self._key(alive)
        if key != self._actives_key:
            m, w = self.a.members.shape
            if w == 0:
                self._actives = np.full(m, -1, dtype=np.int64)
            else:
                self._actives = self._duty(self.rotation_table(alive, key))
            self._actives_key = key
        return self._actives

    def covered_mask(self, alive: np.ndarray) -> np.ndarray:
        """Boolean per target: someone alive is monitoring it."""
        return self.active_sensor_per_cluster(alive) >= 0


class RoundRobinActivator(_SoAActivator):
    """Distributed round-robin activation within every cluster
    (Section III-C).

    Exactly one member monitors per slot.  Each cluster's rotation
    pointer starts at its lowest sensor ID and walks the ID-sorted
    member list one step per slot; depleted members are skipped,
    emulating the unacknowledged-notification fallback.  Hand-offs are
    reported so the simulator can charge the notification packets.

    All per-cluster state lives in the ``(members, sizes, ptr)`` block
    of a :class:`StateArrays`; every query is a gather at ``ptr`` from
    the :class:`RotationTable` of the current alive set.
    """

    rotates = True

    def _duty(self, table: RotationTable) -> np.ndarray:
        return table.flat_cur[table.base + self.a.ptr]

    def active_mask(self, alive: np.ndarray) -> np.ndarray:
        """Boolean mask over sensors: actively sensing right now."""
        # One spare slot past the sensors takes the -1 of the clusters
        # with no alive member.
        mask = np.zeros(self.cluster_set.n_sensors + 1, dtype=bool)
        mask[self.active_sensor_per_cluster(alive)] = True
        return mask[:-1]

    def rotate(self, alive: np.ndarray) -> np.ndarray:
        """Advance every cluster's pointer one slot.

        Returns the ``(k, 2)`` hand-offs ``(retiring_sensor,
        successor_sensor)``, in cluster-id order, of the clusters whose
        duty moved between two alive sensors: each costs the retiring
        node a notification TX and the successor an RX.
        """
        a = self.a
        m, w = a.members.shape
        if m == 0 or w == 0:
            return np.empty((0, 2), dtype=np.int64)
        key = self._key(alive)
        t = self.rotation_table(alive, key)
        # Clusters with two or more alive members hand the duty from the
        # holder at the pointer to its successor; a lone alive member
        # keeps it, and a cluster with none keeps its old pointer.
        pos = t.base + a.ptr
        handoffs = t.pairs.take(pos[t.hand], axis=0)
        a.ptr[...] = t.flat_nxt[pos]
        # Refresh the memo for the alive mask just rotated under: the
        # successors now hold the duty.
        self._actives = t.succ[pos]
        self._actives_key = key
        return handoffs


class FullTimeActivator(_SoAActivator):
    """All alive cluster members monitor simultaneously: the prior
    recharging literature's baseline the paper compares against."""

    rotates = False

    def _duty(self, table: RotationTable) -> np.ndarray:
        # Full-time duty has no pointer: the reported member is the
        # first alive one from slot 0.
        return table.cur[:, 0]

    def active_mask(self, alive: np.ndarray) -> np.ndarray:
        """Boolean mask over sensors: every alive cluster member."""
        return self.cluster_set.clustered_mask() & alive

    def rotate(self, alive: np.ndarray) -> np.ndarray:
        """No rotation: returns no hand-offs."""
        return np.empty((0, 2), dtype=np.int64)


# --------------------------------------------------------------------------
# ERC gate scan
# --------------------------------------------------------------------------


class GateConstants(NamedTuple):
    """The ERC scan's inputs that depend only on ``(cluster epoch, erp)``.

    The ``m`` clusters are bins ``0 .. m - 1``; every unclustered sensor
    falls in one more bin, ``m``, whose quorum of 0 keeps it always open.
    """

    row: np.ndarray  # (n,) int64 each sensor's bin: its cluster id, m if unclustered
    need: np.ndarray  # (m + 1,) int64 quorum max(ceil(nc * K), 1) per cluster, then 0


def erc_gate_constants(membership: np.ndarray, sizes: np.ndarray, erp: float) -> GateConstants:
    """Derive the :class:`GateConstants` of one cluster epoch and ERP."""
    m = len(sizes)
    row = np.where(membership >= 0, membership, m).astype(np.int64)
    need = np.zeros(m + 1, dtype=np.int64)
    # Same elementwise arithmetic as release_count_needed: nc * K is one
    # float64 multiply either way, then ceil, then the floor of 1.
    need[:m] = np.maximum(np.ceil(sizes * erp).astype(np.int64), 1)
    return GateConstants(row, need)


def erc_release(
    gc: GateConstants, below: np.ndarray, listed: np.ndarray, out: np.ndarray
) -> List[int]:
    """Array form of the ERC gate: sensors allowed to request *now*.

    Per cluster the needy count (``below`` members, listed or not) is
    one ``bincount``; a cluster releases every needy non-listed member
    iff the count reaches its quorum ``gc.need``; the unclustered bin's
    quorum is 0, so unclustered needy sensors always release.  Output
    is ascending sensor ids.  ``out`` is a bool scratch buffer of
    sensor shape.
    """
    release = np.greater(below, listed, out=out)  # below & ~listed
    counts = np.bincount(gc.row[below], minlength=len(gc.need))
    release &= (counts >= gc.need)[gc.row]
    return release.nonzero()[0].tolist()


# --------------------------------------------------------------------------
# relay load
# --------------------------------------------------------------------------


def relay_counts(origins: np.ndarray, ancestors: np.ndarray) -> np.ndarray:
    """Per sensor: the ``origins`` in its strict routing subtree, i.e.
    the packets it relays for others (0 for sensors with no route).

    ``ancestors`` is the tree's
    :func:`~repro.network.routing.ancestor_table`: one gather of the
    origins' ancestor rows and one ``bincount`` of them, with the pad
    ``n`` as the discard bin (an origin with no route has a row of pad
    only, so it counts nowhere).  The counts are int64, so they are
    exact in any summation order.
    """
    n = len(ancestors)
    rows = ancestors.take(origins.nonzero()[0], axis=0)
    return np.bincount(rows.ravel(), minlength=n + 1)[:n]

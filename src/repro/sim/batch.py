"""The batched multi-world engine: lockstep (B, n) simulation.

PR 6 vectorized the tick *within* one world; this module vectorizes it
*across* worlds.  ``BatchedStateArrays`` stacks B same-shape worlds —
battery levels, draw rates, request flags and the padded cluster
rotation matrices become ``(B, n)`` / ``(B, m, W)`` arrays — and
``BatchedEngine.step()`` advances every live world by one tick with
batched kernels: activation rotation, battery drain and relay
accounting, the ERC gate scan and the coverage reduction each run once
over the whole stack instead of once per world.  Sweeps stop paying the
per-tick Python dispatch cost per cell.

Exactness contract
------------------

Each world in a batch produces **bit-identical** trajectories to the
serial SoA engine.  The construction mirrors the SoA one, one level
up:

* every component buffer a batched kernel writes (``bank.levels_j``,
  ``state.requested``, ``energy.rates``, ``energy.active``,
  ``energy.alive``, ``arrays.ptr``) is *bound as a row view* of the
  batch-owned stack, so the serial event path — dispatch rounds, RV arrivals,
  relocations — keeps running unmodified per world between ticks and
  reads/writes the very same memory;
* every batched kernel performs the identical IEEE-754 arithmetic per
  element in the identical operation order as its serial counterpart
  (integer packet counts commute; float expressions are copied
  term-for-term from :mod:`repro.sim.soa` and
  :mod:`repro.sim.components.energy`).  The rate recompute *is* the
  serial one: :func:`repro.sim.soa.subtree_counts` over the worlds'
  concatenated preorders, priced by
  :meth:`~repro.sim.components.energy.EnergyAccounting.price` over the
  whole ``(B, n)`` stack;
* worlds only share a batch when their configurations are identical up
  to ``seed`` / ``scheduler`` / ``erp`` / ``sim_time_s`` (the *shape
  signature*, :func:`shape_signature`), which makes every physical
  scalar (tick, capacity, thresholds, power model) a batch constant.

Knobs:

* ``REPRO_BATCH=1`` — opt in: ``runner.run_batch`` and the experiment
  executor group compatible cells into shape-batches.
* ``REPRO_DEBUG_BATCH=1`` — shadow mode: every batched world runs
  beside a serial twin and the full ``snapshot_arrays`` surface is
  compared bit-for-bit after every batched tick.
* ``REPRO_BATCH_SIZE`` — executor-side cap on worlds per batch
  (default 16), balancing batching against process parallelism.
"""

from __future__ import annotations

import json
import logging
from time import perf_counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..obs.blackbox import digest_fields, digest_rng, digest_state
from .components import PRIO_DISPATCH, PRIO_TICK
from .config import SimulationConfig
from .metrics import SimulationSummary
from .serialization import config_to_dict, snapshot_arrays
from .soa import (
    ClusterIndex,
    RotationTable,
    SoAFullTimeActivator,
    SoARoundRobinActivator,
    SubtreeIndex,
    debug_batch,
    rotation_table,
    subtree_counts,
)
from .world import _FULL_DIGEST_EVERY, World

__all__ = [
    "BatchedEngine",
    "BatchedStateArrays",
    "batchable_config",
    "shape_signature",
]

logger = logging.getLogger(__name__)

#: Config fields allowed to differ between worlds sharing one batch.
#: Everything else — population, geometry, periods, power model — is a
#: batch constant, which is what lets the kernels hoist them to scalars.
SIGNATURE_FREE_FIELDS = ("seed", "scheduler", "erp", "sim_time_s")


def shape_signature(config: SimulationConfig) -> str:
    """The batching key: the configuration minus the per-cell axes.

    Two cells may share a batch iff their signatures are equal; the
    executor groups store misses by this string.  JSON with sorted keys
    so the string is canonical.
    """
    d = config_to_dict(config)
    for field in SIGNATURE_FREE_FIELDS:
        d.pop(field, None)
    return json.dumps(d, sort_keys=True)


def batchable_config(config: SimulationConfig) -> bool:
    """Cheap static screen: could a world built from ``config`` run
    under the batched kernels?  (The engine re-checks on the built
    worlds — a plugin activator or ERC override only shows up then.)
    """
    return (
        config.n_sensors > 0
        and config.tick_s > 0
        and config.self_discharge_fraction_per_day == 0
    )


def _batchable_world(world: World) -> Optional[str]:
    """None if ``world`` can run under the batched kernels, else the
    reason it cannot (the caller falls back to ``world.run()``)."""
    s = world.state
    if type(s.activator) not in (SoARoundRobinActivator, SoAFullTimeActivator):
        return f"plugin activator {type(s.activator).__name__}"
    if not world.gate.array_scan:
        return "ERC policy overrides nodes_to_release"
    if s.cfg.self_discharge_fraction_per_day > 0:
        # The batched recompute prices no charge-proportional leakage.
        return "battery leakage configured"
    if s.log.enabled:
        return "event log attached"
    return None


class BatchedStateArrays:
    """The (B, ...) stacks for one batch of same-shape worlds.

    Row ``b`` of every *bound* stack **is** world ``b``'s canonical
    buffer: :meth:`bind` rebinds the per-world component attributes
    (battery levels, request flags, draw rates, active and alive masks,
    rotation pointers) to row views, so serial
    per-world code and batched kernels write the same memory.  The
    *copied* stacks (membership, cluster matrices, routing) are
    refreshed wholesale on relocation epochs / compaction.
    """

    def __init__(self, worlds: Sequence[World]) -> None:
        B = len(worlds)
        w0 = worlds[0]
        n = w0.cfg.n_sensors
        self.B = B
        self.n = n
        self.worlds = list(worlds)
        # -- bound per-sensor stacks ------------------------------------
        self.levels_j = np.empty((B, n), dtype=np.float64)
        self.requested = np.empty((B, n), dtype=bool)
        self.rates_w = np.empty((B, n), dtype=np.float64)
        self.active = np.empty((B, n), dtype=bool)
        self.alive = np.empty((B, n), dtype=bool)
        # -- copied static-per-world stacks ------------------------------
        self.positions = np.stack([w.state.sensor_pos for w in worlds])
        self.uplink_etx = np.stack([w.state.uplink_etx for w in worlds])
        self.connected = np.stack([w.energy._connected for w in worlds])
        # -- per-cluster stacks (refreshed per relocation epoch) ---------
        self.members = np.empty((B, 0, 0), dtype=np.int64)
        self.sizes = np.empty((B, 0), dtype=np.int64)
        self.ptr = np.empty((B, 0), dtype=np.int64)
        self.membership = np.empty((B, n), dtype=np.int64)
        self.coverable = np.empty((B, 0), dtype=bool)
        for b, w in enumerate(worlds):
            self._pull_world(b, w)
        self.restack_clusters()
        self.bind()

    # -- construction / epoch maintenance ------------------------------

    def _pull_world(self, b: int, w: World) -> None:
        """Copy world ``b``'s current per-sensor state into row ``b``."""
        ea = w.energy
        self.levels_j[b] = w.state.bank.levels_j
        self.requested[b] = w.state.requested
        self.rates_w[b] = ea.rates
        self.active[b] = ea.active
        self.alive[b] = ea.alive

    def restack_clusters(self) -> None:
        """(Re)build the padded cluster stacks for the current epoch.

        ``m`` (cluster count = target count) is an epoch invariant, but
        the widest cluster ``W`` may change, so the member matrix is
        restacked wholesale; rotation pointers are copied in and then
        bound back as row views (:meth:`bind` finishes the job).
        """
        worlds = self.worlds
        B = self.B
        m = worlds[0].state.arrays.members.shape[0]
        W = max(w.state.arrays.members.shape[1] for w in worlds)
        self.members = np.full((B, m, W), -1, dtype=np.int64)
        self.sizes = np.zeros((B, m), dtype=np.int64)
        self.ptr = np.zeros((B, m), dtype=np.int64)
        self.coverable = np.zeros((B, m), dtype=bool)
        for b, w in enumerate(worlds):
            a = w.state.arrays
            wb = a.members.shape[1]
            if wb:
                self.members[b, :, :wb] = a.members
            self.sizes[b] = a.sizes
            self.ptr[b] = a.ptr
            self.membership[b] = w.state.cluster_set.membership
            self.coverable[b] = w.state.coverable
        self.m = m
        self.w = W
        self._coverable_counts = np.count_nonzero(self.coverable, axis=1)
        self._make_scratch()

    def _make_scratch(self) -> None:
        B, n, m, W = self.B, self.n, self.m, self.w
        self._scr = np.empty((B, n), dtype=np.float64)
        self._dead = np.empty((B, n), dtype=bool)
        self._below = np.empty((B, n), dtype=bool)
        self._release = np.empty((B, n), dtype=bool)
        self._act2 = np.empty((B, n), dtype=bool)
        # The serial rotation table's ClusterIndex over the flattened
        # (B * m, W) member matrix, with ids shifted to sensor-flat
        # coordinates (b * n + v) so one flat alive mask serves every world.
        ix = ClusterIndex.empty(B * m, W).refresh(self.members.reshape(B * m, W))
        self._row_noff = (ix.rows // m) * n  # cluster row -> world*n
        np.add(ix.ids, self._row_noff[:, None], out=ix.ids)
        self.cluster_index = ix
        self._table: Optional[RotationTable] = None
        self._table_key: Optional[bytes] = None
        self._row_moff = (np.arange(B, dtype=np.int64) * m)  # world -> row base
        self.subtrees = _stack_subtrees([w.energy._subtrees for w in self.worlds], n)

    def rotation_table(self, alive: np.ndarray) -> RotationTable:
        """The serial :func:`~repro.sim.soa.rotation_table` over the
        flattened cluster stack, rebuilt when the batch's alive set
        (``(B, n)``, keyed on its bytes) or the cluster epoch changes."""
        key = alive.tobytes()
        if key != self._table_key:
            self._table = rotation_table(
                self.members.reshape(self.B * self.m, self.w),
                alive.reshape(-1),
                self.cluster_index,
            )
            self._table_key = key
        return self._table

    def bind(self) -> None:
        """Bind every batched-written component buffer to its row view.

        After this, world ``b``'s serial event path (dispatch, RV
        arrivals, relocations) and the batched tick kernels share
        memory; :mod:`repro.sim.components.energy` refreshes these
        buffers in place (never rebinding), which is what keeps the
        views alive across recomputes.
        """
        for b, w in enumerate(self.worlds):
            s = w.state
            a = s.arrays
            bank = s.bank
            bank.levels_j = self.levels_j[b]
            a.levels_j = bank.levels_j
            s.requested = self.requested[b]
            a.requested = s.requested
            ea = w.energy
            ea.rates = self.rates_w[b]
            a.rates_w = ea.rates
            ea.active = self.active[b]
            a.active = ea.active
            ea.alive = self.alive[b]
            a.alive = ea.alive
            a.ptr = self.ptr[b]
            act = s.activator
            act.a = a

    def compact(self, keep: np.ndarray) -> None:
        """Drop finished worlds: fancy-index every stack down to the
        ``keep`` rows and rebind the survivors' row views."""
        self.worlds = [w for k, w in zip(keep, self.worlds) if k]
        self.B = len(self.worlds)
        for name in (
            "levels_j", "requested", "rates_w", "active", "alive", "positions",
            "uplink_etx", "connected", "members", "sizes", "ptr",
            "membership", "coverable",
        ):
            setattr(self, name, getattr(self, name)[keep].copy())
        self._coverable_counts = np.count_nonzero(self.coverable, axis=1)
        self._make_scratch()
        self.bind()


def _stack_subtrees(indexes: Sequence[SubtreeIndex], n: int) -> SubtreeIndex:
    """One :class:`SubtreeIndex` over B worlds' flattened ``(B * n)``
    sensors: the preorders concatenated (world ``b``'s sensors shifted
    to ``b * n + v``) and each range shifted to its world's segment, so
    one ``cumsum`` serves every world and no range crosses a segment."""
    empty = np.empty(0, dtype=np.int64)
    pres, tins, touts = [empty], [empty], [empty]
    off = 0
    for b, ix in enumerate(indexes):
        pres.append(ix.pre + b * n)
        tins.append(ix.tin + off)
        touts.append(ix.tout + off)
        off += len(ix.pre)
    return SubtreeIndex(
        np.concatenate(pres),
        np.concatenate(tins),
        np.concatenate(touts),
        np.zeros(off + 1, dtype=np.int64),
    )


class BatchedEngine:
    """Advance B compatible worlds in lockstep, one tick per step.

    Worlds are built with ``external_tick=True`` — their event queues
    hold relocations, dispatch rounds and RV arrivals but **no** tick
    events; each :meth:`step` drains every world's queue up to (but
    excluding) the tick slot ``(T, PRIO_TICK)`` with
    :meth:`~repro.sim.engine.Simulator.run_until_before`, then performs
    the whole tick as batched kernels.  Events scheduled *at* the tick
    time with a lower priority (a relocation) fire before it and a
    higher priority (a dispatch round) after it — exactly the serial
    (time, priority) order.  Worlds whose horizon has passed are
    finished with the ordinary serial ``World.run()`` (which fires
    their remaining queued events and finalizes the summary) and the
    stacks are compacted.

    With ``debug=True`` (or ``REPRO_DEBUG_BATCH=1``) every world runs
    beside a serial twin and the full ``snapshot_arrays`` surface is
    compared bit-for-bit after every batched tick.
    """

    def __init__(
        self,
        configs: Optional[Sequence[SimulationConfig]] = None,
        *,
        worlds: Optional[Sequence[World]] = None,
        debug: Optional[bool] = None,
    ) -> None:
        if worlds is None:
            if not configs:
                raise ValueError("BatchedEngine needs at least one config")
            worlds = [World(c, external_tick=True) for c in configs]
        elif not worlds:
            raise ValueError("BatchedEngine needs at least one world")
        self.configs = [w.cfg for w in worlds]
        sig = shape_signature(self.configs[0])
        for cfg in self.configs[1:]:
            if shape_signature(cfg) != sig:
                raise ValueError(
                    "worlds in a batch must share a shape signature "
                    "(identical configs up to seed/scheduler/erp/sim_time_s)"
                )
        for w in worlds:
            reason = _batchable_world(w)
            if reason is not None:
                raise ValueError(f"world is not batchable: {reason}")
        self.debug = debug_batch() if debug is None else bool(debug)
        self.stacks = BatchedStateArrays(worlds)
        w0 = worlds[0]
        ea0 = w0.energy
        self._n = w0.cfg.n_sensors
        self._tick = float(w0.cfg.tick_s)
        self._capacity = float(w0.state.bank.capacity_j)
        self._threshold = float(w0.state.bank.threshold_j)
        # The power model is a batch constant: price every world with
        # the first world's cached constants.
        self._price = ea0.price
        self._idle_w = ea0._idle_w
        self._sens_w = ea0._sensing_w
        self._notif_j = ea0._notification_j
        self._rx_j = ea0._rx_j
        self._rotates = getattr(w0.state.activator, "rotates", True)
        self._t = 0.0
        self._epoch = w0.state.targets.epoch
        self._orig = list(range(len(worlds)))
        self.summaries: List[Optional[SimulationSummary]] = [None] * len(worlds)
        self._refs = (
            [World(w.cfg) for w in worlds] if self.debug else None
        )
        self._tmp_bool = np.empty((self.stacks.B, self._n), dtype=bool)
        self._refresh_world_hooks()

    # -- bookkeeping -----------------------------------------------------

    def _refresh_world_hooks(self) -> None:
        worlds = self.stacks.worlds
        self._adjust_hooks = [
            getattr(w.gate.erc, "maybe_adjust", None) for w in worlds
        ]
        self._any_adjust = any(h is not None for h in self._adjust_hooks)
        self._mons = [w.state.monitors for w in worlds]
        self._bbs = [w.state.blackbox for w in worlds]

    @property
    def worlds(self) -> List[World]:
        return self.stacks.worlds

    def run(self) -> List[SimulationSummary]:
        """Step to every world's horizon; summaries in input order."""
        while self.step():
            pass
        return list(self.summaries)  # type: ignore[arg-type]

    # -- the lockstep loop -----------------------------------------------

    def step(self) -> bool:
        """Advance one tick window; False once every world finished.

        The tick time sequence is the same float accumulation the
        serial engine produces by rescheduling (``t += tick_s`` from
        exact previous tick times), so horizon comparisons match
        bit-for-bit.
        """
        if not self.stacks.worlds:
            return False
        T = self._t + self._tick
        done = [
            b
            for b, w in enumerate(self.stacks.worlds)
            if w.cfg.sim_time_s < T
        ]
        if done:
            self._finish(done)
            if not self.stacks.worlds:
                return False
        for w in self.stacks.worlds:
            w.state.sim.run_until_before(T, PRIO_TICK)
        if self.stacks.worlds[0].state.targets.epoch != self._epoch:
            # Lockstep relocation epochs: every live world relocated in
            # this window (identical target periods), so one restack
            # refreshes the cluster stacks and pointer bindings for all.
            self._epoch = self.stacks.worlds[0].state.targets.epoch
            self.stacks.restack_clusters()
            self.stacks.bind()
        self._tick_kernels(T)
        for b, w in enumerate(self.stacks.worlds):
            w.state.sim.events_fired += 1
            if self._bbs[b].enabled:
                self._flight_record(w)
        if self._refs is not None:
            for b, w in enumerate(self.stacks.worlds):
                ref = self._refs[b]
                ref.state.sim.run_until_before(T, PRIO_DISPATCH)
                _compare_snapshots(b, snapshot_arrays(w.state), snapshot_arrays(ref.state))
        self._t = T
        return True

    def _finish(self, done: List[int]) -> None:
        """Finish worlds whose horizon has passed: their remaining
        queued events (a dispatch round or RV arrivals at the horizon)
        fire through the ordinary serial ``run()``, which also performs
        the final energy advance and summary finalization."""
        keep = np.ones(self.stacks.B, dtype=bool)
        for b in done:
            w = self.stacks.worlds[b]
            summary = w.run()
            self.summaries[self._orig[b]] = summary
            if self._refs is not None:
                ref_summary = self._refs[b].run()
                if summary.as_dict() != ref_summary.as_dict():
                    raise AssertionError(
                        "batched engine summary diverged from the serial "
                        f"twin (REPRO_DEBUG_BATCH, world {self._orig[b]}): "
                        f"{summary.as_dict()} != {ref_summary.as_dict()}; "
                        "please report this"
                    )
            keep[b] = False
        self._orig = [o for k, o in zip(keep, self._orig) if k]
        if self._refs is not None:
            self._refs = [r for k, r in zip(keep, self._refs) if k]
        self.stacks.compact(keep)
        self._tmp_bool = np.empty((self.stacks.B, self._n), dtype=bool)
        self._refresh_world_hooks()

    # -- the batched tick --------------------------------------------------

    def _tick_kernels(self, T: float) -> None:
        """One serial ``_on_tick`` for every world, as batched kernels.

        Phase order and per-element arithmetic mirror
        :meth:`World._on_tick` exactly: energy advance (drain, deaths),
        rotation + hand-off drains, rate recompute, ERC gate scan,
        metrics.  Everything per-world and rare (death
        recomputes, request releases, monitor checks) drops back to the
        serial component code through the bound row views.
        """
        st = self.stacks
        worlds = st.worlds
        B, n, m, W = st.B, st.n, st.m, st.w
        L, R = st.levels_j, st.rates_w
        # -- energy advance (mirrors EnergyAccounting._advance) -----------
        dts = np.empty(B, dtype=np.float64)
        for b, w in enumerate(worlds):
            dts[b] = T - w.energy._last_t
        for b in range(B):
            if self._mons[b].enabled:
                self._mons[b].check_alive_mask(st.alive[b], L[b], T)
        mon_rows = [
            b for b in range(B) if self._mons[b].enabled and dts[b] > 0
        ]
        levels_before = L.copy() if mon_rows else None
        np.multiply(R, dts[:, None], out=st._scr)
        np.subtract(L, st._scr, out=L)
        np.maximum(L, 0.0, out=L)
        np.minimum(L, self._capacity, out=L)
        # The drain only lowers levels: the deaths are the alive sensors
        # now at zero, and the bound alive rows drop them in place.
        dead = np.less_equal(L, 0.0, out=st._dead)
        died = np.logical_and(st.alive, dead, out=self._tmp_bool)
        alive = np.logical_not(dead, out=st.alive)
        for b in mon_rows:
            mon = self._mons[b]
            mon.check_energy_conservation(
                levels_before[b], L[b], R[b], dts[b], T
            )
            mon.check_battery_bounds(L[b], self._capacity, T)
        for b, w in enumerate(worlds):
            ea = w.energy
            dt = dts[b]
            if dt > 0:
                for cat, watts in ea._category_watts.items():
                    ea.breakdown_j[cat] += watts * dt
            ea._last_t = T
        if died.any():
            died_counts = np.count_nonzero(died, axis=1)
            for b in np.flatnonzero(died_counts):
                w = worlds[b]
                n_died = int(died_counts[b])
                logger.debug("t=%.0fs: %d sensor(s) depleted", T, n_died)
                if w.energy.on_deaths is not None:
                    w.energy.on_deaths(n_died)
                w.energy.recompute()
        # -- rotation + hand-offs (mirrors SoARoundRobinActivator.rotate
        # and EnergyAccounting.apply_handoffs) ----------------------------
        if self._rotates and m and W:
            t = st.rotation_table(alive)
            ptrf = st.ptr.reshape(-1)
            pos = t.base + ptrf
            idx = t.hand
            pairs = t.pairs[pos[idx]]
            np.copyto(ptrf, t.nxt.ravel()[pos], where=t.live)
            if idx.size:
                b_of = idx // m
                lf = L.reshape(-1)
                oidx = pairs[:, 0] + b_of * n
                lf[oidx] = np.maximum(lf[oidx] - self._notif_j, 0.0)
                nidx = pairs[:, 1] + b_of * n
                lf[nidx] = np.maximum(lf[nidx] - self._rx_j, 0.0)
                pair_j = self._notif_j + self._rx_j
                counts = np.bincount(b_of, minlength=B)
                for b in np.flatnonzero(counts):
                    w = worlds[b]
                    k = int(counts[b])
                    w.energy.breakdown_j["notifications"] += k * pair_j
                    if self._bbs[b].enabled:
                        self._bbs[b].note("handoffs", k)
            # Hand-off drains can empty a battery: re-derive alive for
            # the recompute, exactly like the serial post-rotation pass
            # (the bound rows keep every world's energy.alive current).
            alive = np.greater(L, 0.0, out=st.alive)
        # -- active set (one lookup serves recompute *and* metrics) -------
        if m and W:
            t = st.rotation_table(alive)
            if self._rotates:
                actives = t.cur.ravel()[t.base + st.ptr.reshape(-1)]
            else:
                actives = t.cur[:, 0]
        else:
            actives = np.full(B * m, -1, dtype=np.int64)
        if self._rotates:
            act2 = st._act2
            act2[...] = False
            act2f = act2.reshape(-1)
            valid = actives >= 0
            act2f[actives[valid] + st._row_noff[valid]] = True
            self._recompute(alive, act2)
        else:
            act2 = np.logical_and(st.membership >= 0, alive, out=st._act2)
        # -- ERC gate (mirrors RequestGate._check / erc_release_scan) -----
        if self._any_adjust:
            for b, w in enumerate(worlds):
                hook = self._adjust_hooks[b]
                if hook is not None:
                    hook(T)
        below = np.less(L, self._threshold, out=st._below)
        msh = st.membership
        clustered = msh >= 0
        needy = below & clustered
        sidx = needy.reshape(-1).nonzero()[0]
        counts = np.bincount(msh.reshape(-1)[sidx] + (sidx // n) * m, minlength=B * m)
        erps = np.fromiter(
            (w.gate.erc.erp for w in worlds), np.float64, count=B
        )
        need = np.maximum(np.ceil(st.sizes * erps[:, None]).astype(np.int64), 1)
        open_gate = counts.reshape(B, m) >= need
        release = np.logical_and(below, ~st.requested, out=st._release)
        if m:
            gather = np.maximum(msh, 0) + st._row_moff[:, None]
            release &= ~clustered | open_gate.reshape(-1)[gather]
        rel_any = release.any(axis=1)
        for b, w in enumerate(worlds):
            gate = w.gate
            to_release = (
                [int(v) for v in np.flatnonzero(release[b])]
                if rel_any[b]
                else []
            )
            if self._mons[b].enabled:
                a = w.state.arrays
                self._mons[b].check_erc_release_arrays(
                    a.cluster_id,
                    a.sizes,
                    below[b],
                    w.state.requested,
                    to_release,
                    gate.erc.erp,
                    T,
                    cluster_set=w.state.cluster_set,
                )
            gate._release(to_release)
        # -- metrics (mirrors World._record_metrics) ----------------------
        acts2d = actives.reshape(B, m)
        cov_cnt = np.count_nonzero((acts2d >= 0) & st.coverable, axis=1)
        den = st._coverable_counts
        alive_cnt = np.count_nonzero(alive, axis=1)
        for b, w in enumerate(worlds):
            s = w.state
            coverage = float(cov_cnt[b]) / float(den[b]) if den[b] else 1.0
            nonfunctional = (
                float(n - alive_cnt[b]) / float(n) if n > 0 else 0.0
            )
            s.metrics.record(T, coverage, nonfunctional, float(alive_cnt[b]))
            # The activator memo ends the tick exactly as the serial
            # engine leaves it: the actives for the current alive mask.
            act = s.activator
            act._actives = acts2d[b].copy()
            act._actives_key = alive[b].tobytes()

    def _recompute(self, alive: np.ndarray, act2: np.ndarray) -> None:
        """Batched :meth:`EnergyAccounting.recompute`: the serial pass
        row-wise over the ``(B, n)`` stack — one prefix-sum relay count
        over the concatenated preorders, then the serial pricing."""
        st = self.stacks
        origins = np.logical_and(act2, st.connected)
        through = subtree_counts(origins.reshape(-1), st.subtrees).reshape(st.B, st.n)
        relay_w = self._price(
            alive, act2, origins, through, st.uplink_etx, out=st.rates_w
        )
        st.active[...] = act2
        alive_cnt = np.count_nonzero(alive, axis=1)
        act_cnt = np.count_nonzero(act2, axis=1)
        for b, w in enumerate(st.worlds):
            w.energy._category_watts = {
                "idle": float(alive_cnt[b]) * self._idle_w,
                "sensing": float(act_cnt[b]) * self._sens_w,
                "relay": float(relay_w[b].sum()),
                "leakage": 0.0,
            }
            # This pass wrote the world's rates row behind its serial
            # re-pricing memo: the next serial recompute must re-price.
            w.energy._priced_key = None

    # -- flight records ----------------------------------------------------

    def _flight_record(self, w: World) -> None:
        """Per-world tick flight record, mirroring
        :meth:`World._flight_record` — minus checkpoint capture, which
        needs the tick event in the pending queue to be replayable."""
        s = w.state
        bb = s.blackbox
        wall = perf_counter()
        snap = snapshot_arrays(s)
        if (bb.seq + 1) % _FULL_DIGEST_EVERY == 0:
            digests = digest_state(snap)
        else:
            digests = {"state": digest_fields(snap)}
        bb.record(
            "tick",
            s.now,
            digests,
            rng=digest_rng(s.rng.bit_generator.state),
            wall_ms=round((wall - w._bb_wall) * 1e3, 3),
            backlog=len(s.requests),
            events_fired=s.sim.events_fired,
        )
        w._bb_wall = wall


def _compare_snapshots(world_idx: int, got: Dict, ref: Dict) -> None:
    """``REPRO_DEBUG_BATCH``: the batched snapshot must equal the
    serial twin's, field for field."""
    fields = set(got) | set(ref)
    for field in sorted(fields):
        if field not in got or field not in ref or not np.array_equal(
            got[field], ref[field]
        ):
            raise AssertionError(
                "batched engine diverged from the serial twin "
                f"(REPRO_DEBUG_BATCH, world {world_idx}, field {field!r}): "
                f"{got.get(field)!r} != {ref.get(field)!r}; please report this"
            )

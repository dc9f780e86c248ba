"""The WRSN simulation world: a thin composition root.

The world wires four pluggable subsystems (:mod:`repro.sim.components`)
over one shared :class:`SimulationState` and drives the paper's joint
loop with three periodic events: **tick** (batteries advance, duty
rotates, the ERC gate re-evaluates), **relocation** (targets move and
clusters re-form) and the **dispatch round** (backlog to scheduler,
fleet executes sorties).  Every pluggable piece is built by name
through :mod:`repro.registry`, so new policies plug in without touching
this module.  A single RNG seed makes a run fully deterministic.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.scheduling import Scheduler
from ..registry import SCHEDULERS
from .components import (
    PRIO_DISPATCH,
    PRIO_RELOCATE,
    PRIO_TICK,
    ClusterManager,
    EnergyAccounting,
    FleetController,
    RequestGate,
    SimulationState,
)
from .config import SimulationConfig
from .metrics import SimulationSummary
from .serialization import snapshot_arrays

__all__ = ["World"]


class World:
    """One fully wired simulation instance.

    ``scheduler`` defaults to the one named by ``config.scheduler``
    (built from :data:`repro.registry.SCHEDULERS`); a ``log``
    (:class:`repro.obs.EventLog`), when given, records every phase
    (run → tick → component phase), semantic event and series sample,
    from which the run's spans and instruments derive; ``monitors``
    (:class:`repro.obs.MonitorSet`) trips on runtime invariant
    violations; ``blackbox`` (:class:`repro.obs.BlackBoxRecorder`)
    receives one digest row per periodic event, written here and
    nowhere else.  The wired components are exposed as
    ``world.energy``, ``world.clusters``, ``world.gate`` and
    ``world.fleet``; the shared state as ``world.state``.
    """

    def __init__(
        self,
        config: SimulationConfig,
        scheduler: Optional[Scheduler] = None,
        log=None,
        monitors=None,
        blackbox=None,
    ) -> None:
        self.cfg = config
        self.state = SimulationState.from_config(config, log=log, monitors=monitors)
        self.blackbox = blackbox
        self.clusters = ClusterManager(self.state)
        if scheduler is None:
            scheduler = SCHEDULERS.build(config.scheduler, fleet_size=config.n_rvs)
        self.gate = RequestGate(self.state)
        self.energy = EnergyAccounting(self.state, on_deaths=self.gate.note_deaths)
        self.fleet = FleetController(
            self.state, self.energy, self.gate, scheduler, on_change=self._record_metrics
        )
        self._metrics_key = None
        self._record_metrics()

        sim = self.state.sim
        sim.schedule(config.tick_s, self._on_tick, priority=PRIO_TICK)
        sim.schedule(config.target_period_s, self._on_relocate, priority=PRIO_RELOCATE)
        sim.schedule(config.dispatch_period_s, self._on_dispatch_round, priority=PRIO_DISPATCH)

    # -- periodic events --

    # Each handler opens its log phase only when the log records: a
    # disabled log's phases are no-ops, and entering one still costs a
    # call per component per event.

    def _on_tick(self) -> None:
        log = self.state.log
        if log.enabled:
            with log.phase("tick", t=self.state.now):
                self._tick()
        else:
            self._tick()
        self.state.sim.schedule_in(self.cfg.tick_s, self._on_tick, priority=PRIO_TICK)
        if self.blackbox is not None:
            self._flight_record("tick")

    def _tick(self) -> None:
        energy = self.energy
        energy.advance()
        if getattr(self.state.activator, "rotates", True):
            energy.apply_handoffs(self.clusters.rotate())
            energy.recompute()
        gate = self.gate
        gate.maybe_adjust()
        gate.check()
        self._record_metrics()

    def _on_dispatch_round(self) -> None:
        """Periodic base-station scheduling round over the backlog."""
        log = self.state.log
        if log.enabled:
            with log.phase("dispatch_round", t=self.state.now):
                self._dispatch_round()
        else:
            self._dispatch_round()
        self.state.sim.schedule_in(
            self.cfg.dispatch_period_s, self._on_dispatch_round, priority=PRIO_DISPATCH
        )
        if self.blackbox is not None:
            self._flight_record("dispatch")

    def _dispatch_round(self) -> None:
        self.energy.advance()
        self.gate.check()
        self.fleet.dispatch()
        self._record_metrics()

    def _on_relocate(self) -> None:
        with self.state.log.phase("relocate", t=self.state.now):
            self.energy.advance()
            self.clusters.relocate()
            self.energy.recompute()
            self.gate.check()
            self._record_metrics()
        self.state.sim.schedule_in(
            self.cfg.target_period_s, self._on_relocate, priority=PRIO_RELOCATE
        )
        if self.blackbox is not None:
            self._flight_record("relocate")

    def _flight_record(self, kind: str) -> None:
        """One digest row for the periodic event just fired.

        Runs *after* the handler rescheduled itself, so a checkpoint
        taken here sees the complete pending-event set.  The digests
        cover exactly the ``snapshot_arrays`` fields plus the RNG state,
        which is what makes recorded runs replayable; the recorder
        decides which rows also carry per-field digests.
        """
        s = self.state
        bb = self.blackbox
        bb.record(kind, s.now, snapshot_arrays(s), s.rng.bit_generator.state)
        if kind == "tick" and bb.should_checkpoint():
            from .replay import capture_checkpoint

            ckpt = capture_checkpoint(self, bb.seq)
            if ckpt is not None:
                bb.add_checkpoint(ckpt)

    def _record_metrics(self) -> None:
        s = self.state
        a = s.arrays
        # An activator's covered mask is a function of the alive set
        # and the cluster epoch (the plugin protocol of repro.sim.soa),
        # and the epoch also fixes ``coverable``: the three fields are
        # derived once per key.  The alive set's bytes are the key the
        # energy component took when it last wrote the mask.
        key = (a.alive_key, a.cluster_epoch)
        if key != self._metrics_key:
            self._metrics_key = key
            self._metrics_fields = self._derive_metrics(a.alive)
        coverage, nonfunctional, operational = self._metrics_fields
        now = s.sim.now
        s.metrics.record(now, coverage, nonfunctional, operational)
        log = s.log
        if log.enabled:
            log.sample(now, "coverage", coverage)
            log.sample(now, "nonfunctional", nonfunctional)
            log.sample(now, "operational", operational)
            log.sample(now, "backlog", float(len(s.requests)))

    def _derive_metrics(self, alive: np.ndarray):
        """(coverage, nonfunctional, operational) for ``alive``."""
        s = self.state
        # Counts and one true division each: the same correctly rounded
        # quotient np.mean takes over the boolean masks.
        n_coverable = np.count_nonzero(s.coverable)
        if n_coverable:
            covered = s.activator.covered_mask(alive)[s.coverable]
            coverage = float(np.count_nonzero(covered) / n_coverable)
        else:
            coverage = 1.0
        n = self.cfg.n_sensors
        n_alive = np.count_nonzero(alive)
        nonfunctional = float((n - n_alive) / n) if n > 0 else 0.0
        return coverage, nonfunctional, float(n_alive)

    # -- run --

    def run(self) -> SimulationSummary:
        """Run to the configured horizon and return the summary."""
        with self.state.log.phase(
            "run",
            scheduler=self.cfg.scheduler,
            activation=self.cfg.activation,
            erp=self.cfg.erp,
            seed=self.cfg.seed,
        ):
            self.state.sim.run_until(self.cfg.sim_time_s)
            self.energy.advance()
        books = self.fleet.totals()
        return self.state.metrics.finalize(
            t_end=self.cfg.sim_time_s,
            rv_distance_m=books["distance_m"],
            rv_moving_energy_j=books["moving_energy_j"],
            delivered_energy_j=books["delivered_energy_j"],
            n_sorties=books["sorties"],
            events_fired=self.state.sim.events_fired,
        )

    # -- introspection helpers (used by examples and tests) --

    def energy_breakdown(self) -> Dict[str, float]:
        """Cumulative network consumption by category (Joules):
        ``idle``, ``sensing``, ``relay``, ``leakage`` and
        ``notifications`` (round-robin hand-off packets).  Loose upper
        bound where sensors clamp at empty."""
        return self.energy.breakdown()

    def snapshot(self) -> Dict[str, np.ndarray]:
        """A read-only view of the current world state."""
        s = self.state
        alive = s.bank.alive_mask()
        return {
            "time_s": np.array(s.now),
            "sensor_positions": s.sensor_pos.copy(),
            "battery_levels_j": s.bank.levels_j.copy(),
            "alive": alive,
            "active": s.activator.active_mask(alive),
            "target_positions": s.targets.positions.copy(),
            "cluster_membership": s.cluster_set.membership.copy(),
            "rv_positions": s.arrays.rv_pos.copy(),
            "pending_requests": s.requests.node_ids,
        }

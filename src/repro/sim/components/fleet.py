"""The recharging-vehicle fleet: dispatch rounds, sortie legs, returns.

:class:`FleetController` executes the online side of the scheduling
problem.  Each dispatch round snapshots the idle RVs as
:class:`~repro.core.scheduling.RVView` slices, hands the backlog to the
configured scheduler, and walks every assigned
:class:`~repro.core.scheduling.PlannedRoute` leg by leg through the
event engine: drive, park and charge to full, next stop, and back to
the depot to refill the sortie budget when the scheduler leaves an RV
unassigned while work remains.
"""

from __future__ import annotations

import logging
from functools import partial
from typing import Callable, Dict, List, Optional

from ...core.scheduling import RVView, Scheduler
from ...mobility.vehicles import RechargingVehicle
from ...obs.log import EventKind
from .energy import EnergyAccounting
from .gate import RequestGate
from .state import PRIO_RV, SimulationState

__all__ = ["FleetController"]

logger = logging.getLogger(__name__)


class FleetController:
    """Owns the RVs and drives their sorties through the event engine.

    Args:
        state: the shared simulation state.
        energy: the energy component (advanced before every state-
            changing RV event so batteries are current).
        gate: the request gate (backlog source; notified on recharges).
        scheduler: the route planner assigning sorties to idle RVs.
        on_change: optional callback fired after observable fleet state
            changes (the world samples metrics through it).
    """

    def __init__(
        self,
        state: SimulationState,
        energy: EnergyAccounting,
        gate: RequestGate,
        scheduler: Scheduler,
        on_change: Optional[Callable[[], None]] = None,
    ) -> None:
        self.s = state
        self.energy = energy
        self.gate = gate
        self.scheduler = scheduler
        self.on_change = on_change or (lambda: None)
        cfg = state.cfg
        self.rvs: List[RechargingVehicle] = [
            RechargingVehicle(
                rv_id=i,
                depot=state.field.base_station,
                speed_mps=cfg.rv_speed_mps,
                moving_cost_j_per_m=cfg.rv_moving_cost_j_per_m,
                capacity_j=cfg.rv_capacity_j,
            )
            for i in range(cfg.n_rvs)
        ]
        self.a = state.arrays
        # The returning flags ARE the SoA array — one buffer, two names
        # — and every observable RV change is written through to the
        # per-RV block (rv_pos / rv_level_j / rv_busy) so array readers
        # never see a stale fleet.
        self.returning = self.a.rv_returning
        for rv in self.rvs:
            self._sync_rv(rv)
        # Each RV's leg callbacks, bound once: a sortie leg schedules one
        # of these instead of a fresh closure.
        self._arrive = [partial(self._rv_arrive, rv) for rv in self.rvs]
        self._home = [partial(self._rv_home, rv) for rv in self.rvs]
        self._ready = [partial(self._rv_ready, rv) for rv in self.rvs]

    def _sync_rv(self, rv: RechargingVehicle) -> None:
        """Write-through one RV's observable state into the SoA block."""
        a = self.a
        a.rv_pos[rv.rv_id] = rv.position
        a.rv_level_j[rv.rv_id] = rv.battery.level_j
        a.rv_busy[rv.rv_id] = rv.busy

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def idle_views(self) -> List[RVView]:
        """Scheduler-facing views of the RVs available for assignment."""
        views = []
        for rv in self.rvs:
            if rv.busy or self.returning[rv.rv_id]:
                continue
            views.append(
                RVView(
                    rv_id=rv.rv_id,
                    position=rv.position,
                    budget_j=rv.battery.level_j,
                    em_j_per_m=rv.moving_cost_j_per_m,
                    charge_efficiency=self.s.cfg.charge_model.efficiency,
                    depot=rv.depot,
                )
            )
        return views

    def dispatch(self) -> None:
        """Hand pending requests to idle RVs via the scheduler."""
        s = self.s
        if len(s.requests) == 0:
            return
        views = self.idle_views()
        if not views:
            return
        if s.log.enabled:
            with s.log.phase("fleet.dispatch", backlog=len(s.requests), idle_rvs=len(views)):
                self._dispatch(views)
        else:
            self._dispatch(views)

    def _dispatch(self, views: List[RVView]) -> None:
        s = self.s
        mon = s.monitors
        log = s.log
        observe = getattr(self.scheduler, "observe_time", None)
        if observe is not None:
            observe(s.now)
        if mon.enabled or log.enabled:
            # Backlog snapshot *before* assignment: chained schedulers
            # consume the request list in place.
            node_cluster = {int(r.node_id): int(r.cluster_id) for r in s.requests}
            backlog_per_cluster: Dict[int, int] = {}
            for cid in node_cluster.values():
                if cid != -1:
                    backlog_per_cluster[cid] = backlog_per_cluster.get(cid, 0) + 1
            views_by_id = {v.rv_id: v for v in views}
        if log.enabled:
            with log.phase("scheduler.assign") as assign_span:
                plans = self.scheduler.assign(s.requests, views, s.rng)
            assign_span.set(
                scheduler=getattr(self.scheduler, "name", type(self.scheduler).__name__),
                plans=len(plans),
            )
        else:
            plans = self.scheduler.assign(s.requests, views, s.rng)
        logger.debug(
            "t=%.0fs: dispatch round, %d request(s), %d idle RV(s), %d sortie(s)",
            s.now, len(s.requests), len(views), len(plans),
        )
        atomic = getattr(self.scheduler, "atomic_cluster_service", False)
        for rv_id, plan in plans.items():
            if mon.enabled:
                mon.check_plan_capacity(plan, views_by_id[rv_id], s.now)
                if atomic:
                    mon.check_atomic_service(
                        plan, node_cluster, backlog_per_cluster, s.now, rv_id=rv_id
                    )
            rv = self.rvs[rv_id]
            rv.begin_sortie(list(plan.node_ids))
            self._sync_rv(rv)
            if log.enabled:
                log.emit(
                    s.now,
                    EventKind.SORTIE_ASSIGNED,
                    rv_id,
                    float(len(plan)),
                    rv_id=rv_id,
                    stops=len(plan),
                    profit_j=float(plan.profit_j),
                    travel_m=float(plan.travel_m),
                    clusters=sorted(
                        {node_cluster.get(int(n), -1) for n in plan.node_ids} - {-1}
                    ),
                )
            self._next_leg(rv)
        # Idle RVs that got nothing while work exists go home to refill
        # (an empty budget is the usual reason the scheduler skipped them).
        if len(s.requests) > 0:
            for view in self.idle_views():
                rv = self.rvs[view.rv_id]
                if rv.battery.level_j < rv.capacity_j - 1e-9 and not rv.at_depot:
                    self.send_home(rv)

    def _on_idle(self) -> None:
        """An RV became available: optionally run an extra round."""
        if self.s.cfg.dispatch_on_idle:
            self.gate.check()
            self.dispatch()

    # ------------------------------------------------------------------
    # depot returns
    # ------------------------------------------------------------------

    def send_home(self, rv: RechargingVehicle) -> None:
        """Send an RV back to the depot to refill its sortie budget."""
        self.returning[rv.rv_id] = True
        tt = rv.travel_time_to(rv.depot)
        self.s.sim.schedule_in(tt, self._home[rv.rv_id], priority=PRIO_RV)

    def _rv_home(self, rv: RechargingVehicle) -> None:
        s = self.s
        self.energy.advance()
        rv.return_to_depot()
        self._sync_rv(rv)
        if s.log.enabled:
            s.log.emit(s.now, EventKind.RV_RETURNED_HOME, rv.rv_id)
        if s.cfg.rv_depot_dwell_s > 0:
            # The RV stays docked (still "returning") while its own
            # battery refills at the base station.
            s.sim.schedule_in(
                s.cfg.rv_depot_dwell_s, self._ready[rv.rv_id], priority=PRIO_RV
            )
        else:
            self._rv_ready(rv)

    def _rv_ready(self, rv: RechargingVehicle) -> None:
        self.returning[rv.rv_id] = False
        self._on_idle()
        self.on_change()

    # ------------------------------------------------------------------
    # sortie execution
    # ------------------------------------------------------------------

    def _next_leg(self, rv: RechargingVehicle) -> None:
        if not rv.itinerary:
            rv.end_sortie()
            self._sync_rv(rv)
            self._on_idle()
            return
        node = rv.itinerary[0]
        tt = rv.travel_time_to(self.s.sensor_pos[node])
        self.s.sim.schedule_in(tt, self._arrive[rv.rv_id], priority=PRIO_RV)

    def _rv_arrive(self, rv: RechargingVehicle) -> None:
        s = self.s
        self.energy.advance()
        node = rv.itinerary.pop(0)
        rv.move_to(s.sensor_pos[node])
        self._sync_rv(rv)
        if s.log.enabled:
            s.log.emit(s.now, EventKind.RV_ARRIVED, rv.rv_id, float(node))
        # The node's demand d_i = Ec - level_i (Section IV-A).
        demand = float(s.bank.capacity_j - s.bank.levels_j[node])
        charge_time = s.cfg.charge_model.charge_time_s(demand)
        s.sim.schedule_in(
            charge_time, partial(self._rv_finish_charge, rv, node), priority=PRIO_RV
        )

    def _rv_finish_charge(self, rv: RechargingVehicle, node: int) -> None:
        s = self.s
        self.energy.advance()
        was_depleted = bool(s.bank.levels_j[node] <= 0.0)
        delivered = s.bank.charge_to_full(node)
        if s.log.enabled:
            s.log.emit(s.now, EventKind.NODE_RECHARGED, int(node), delivered)
            if was_depleted:
                s.log.emit(s.now, EventKind.SENSOR_REVIVED, int(node))
        rv.deliver(delivered, s.cfg.charge_model.efficiency)
        self._sync_rv(rv)
        self.gate.mark_recharged(node)
        # A refilled node may have been depleted: rates and coverage change.
        self.energy.recompute()
        self.on_change()
        self._next_leg(rv)

    # ------------------------------------------------------------------
    # books
    # ------------------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Fleet-wide cumulative statistics for the final summary."""
        return {
            "distance_m": sum(rv.stats.distance_m for rv in self.rvs),
            "moving_energy_j": sum(rv.stats.moving_energy_j for rv in self.rvs),
            "delivered_energy_j": sum(rv.stats.delivered_energy_j for rv in self.rvs),
            "sorties": sum(rv.stats.sorties for rv in self.rvs),
        }

"""Simulation configuration.

:class:`SimulationConfig` collects every knob of the WRSN world.  The
defaults are the paper's Table II; quantities the paper leaves implicit
(battery capacity, wireless charge power, RV sortie budget, rotation
slot, initial charge spread) carry documented defaults chosen to match
the cited hardware — see DESIGN.md for the substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from ..energy.battery import DEFAULT_SENSOR_CAPACITY_J
from ..energy.consumption import NodePowerModel
from ..energy.recharge import ChargeModel
from ..registry import ACTIVATORS, CLUSTERINGS, MOBILITY_MODELS, SCHEDULERS

__all__ = ["SimulationConfig", "DAY_S", "HOUR_S"]

HOUR_S = 3600.0
DAY_S = 24 * HOUR_S

ROUTING_METRICS = ("distance", "etx")


@dataclass(frozen=True)
class SimulationConfig:
    """All parameters of one simulation run.

    Attributes (paper's Table II unless noted):
        n_sensors: sensors deployed (``N = 500``).
        n_targets: targets in the field (``M = 15``).
        n_rvs: recharging vehicles (``m = 3``).
        side_length_m: field side (``L = 200`` m).
        comm_range_m: communication range (``dc = 12`` m).
        sensing_range_m: sensing range (``ds = 8`` m).
        sim_time_s: simulated horizon (paper: 120 days).
        target_period_s: target dwell time (3 h).
        threshold_fraction: recharge threshold ``Eth`` (50% of ``Ec``).
        rv_moving_cost_j_per_m: ``em`` (5.6 J/m).
        rv_speed_mps: ``vr`` (1 m/s).
        erp: Energy Request Percentage ``K`` in ``[0, 1]``;
            0 disables ERC (classic immediate requests).
        adaptive_erp: when True, ``erp`` is only the starting value and
            an AIMD controller tunes ``K`` online (raises it while no
            sensor dies, backs off on depletions) — the knee search the
            paper leaves to offline sweeps.
        rv_depot_dwell_s: time an RV spends docked at the base station
            refilling its own battery before it can be dispatched again
            (the paper treats RV self-recharge as free; a nonzero dwell
            models it).
        scheduler: one of ``greedy | insertion | partition | combined``.
        activation: ``round_robin`` (the paper's scheme) or
            ``full_time`` (the prior-work baseline).
        routing_metric: ``distance`` routes data over Dijkstra
            shortest paths (the paper's choice); ``etx`` weights links
            by expected transmissions (grey-region PRR model), routing
            around weak edge-of-range hops and charging retransmission
            energy to relays.
        battery_capacity_j: sensor pack ``Ec`` (not in Table II; two AAA
            Ni-MH cells at 3 V ~= 8.1 kJ).
        self_discharge_fraction_per_day: Ni-MH self-discharge (the
            cited Panasonic handbook quotes ~1%/day at room
            temperature); modeled as a charge-proportional drain,
            refreshed piecewise at every rate recomputation. 0 (off)
            by default to match the paper's implicit model.
        initial_charge_range: sensors start uniformly charged within
            this state-of-charge band, desynchronizing threshold
            crossings the way a real deployment's history would.
        rv_capacity_j: sortie budget ``Cr``.
        charge_model: wireless power transfer into sensor batteries.
        power_model: node consumption model (CC2480 + PIR defaults).
        tick_s: cadence of the periodic bookkeeping event — the
            round-robin rotation slot, request-gate evaluation and
            metric sampling all run on this grid.
        dispatch_period_s: cadence of the base station's scheduling
            rounds.  Requests accumulate on the recharge node list
            between rounds and each round hands the backlog to the
            configured scheduler (the paper's base station computes
            schedules against the *updated* list, i.e. in batches).
        dispatch_on_idle: when True an RV finishing its sortie
            immediately triggers an extra scheduling round instead of
            waiting for the next periodic one.
        seed: master RNG seed.
    """

    n_sensors: int = 500
    n_targets: int = 15
    n_rvs: int = 3
    side_length_m: float = 200.0
    comm_range_m: float = 12.0
    sensing_range_m: float = 8.0
    sim_time_s: float = 120 * DAY_S
    target_period_s: float = 3 * HOUR_S
    threshold_fraction: float = 0.5
    rv_moving_cost_j_per_m: float = 5.6
    rv_speed_mps: float = 1.0
    erp: float = 0.0
    adaptive_erp: bool = False
    rv_depot_dwell_s: float = 0.0
    scheduler: str = "combined"
    activation: str = "round_robin"
    clustering: str = "balanced"
    target_mobility: str = "jump"
    target_speed_mps: float = 0.5
    routing_metric: str = "distance"
    battery_capacity_j: float = DEFAULT_SENSOR_CAPACITY_J
    self_discharge_fraction_per_day: float = 0.0
    initial_charge_range: Tuple[float, float] = (0.55, 1.0)
    rv_capacity_j: float = 500_000.0
    charge_model: ChargeModel = field(default_factory=ChargeModel)
    power_model: NodePowerModel = field(default_factory=NodePowerModel)
    tick_s: float = 600.0
    dispatch_period_s: float = 2 * HOUR_S
    dispatch_on_idle: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_sensors < 0 or self.n_targets < 0 or self.n_rvs < 0:
            raise ValueError("counts must be non-negative")
        if self.side_length_m <= 0:
            raise ValueError("side_length_m must be positive")
        if self.comm_range_m <= 0 or self.sensing_range_m <= 0:
            raise ValueError("ranges must be positive")
        if self.sim_time_s <= 0 or self.target_period_s <= 0 or self.tick_s <= 0:
            raise ValueError("times must be positive")
        if self.dispatch_period_s <= 0:
            raise ValueError("dispatch_period_s must be positive")
        if not 0.0 <= self.threshold_fraction <= 1.0:
            raise ValueError("threshold_fraction must lie in [0, 1]")
        if not 0.0 <= self.erp <= 1.0:
            raise ValueError("erp must lie in [0, 1]")
        if self.rv_depot_dwell_s < 0:
            raise ValueError("rv_depot_dwell_s must be non-negative")
        if not 0.0 <= self.self_discharge_fraction_per_day < 1.0:
            raise ValueError("self_discharge_fraction_per_day must lie in [0, 1)")
        # Name fields validate against the live registries, so the
        # accepted values (and the error messages) always match what is
        # actually registered — including plugins.
        SCHEDULERS.check(self.scheduler)
        ACTIVATORS.check(self.activation)
        CLUSTERINGS.check(self.clustering)
        MOBILITY_MODELS.check(self.target_mobility)
        if self.target_speed_mps <= 0:
            raise ValueError("target_speed_mps must be positive")
        if self.routing_metric not in ROUTING_METRICS:
            raise ValueError(
                f"routing_metric must be one of {ROUTING_METRICS}, got {self.routing_metric!r}"
            )
        lo, hi = self.initial_charge_range
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError("initial_charge_range must be an ordered pair within [0, 1]")
        if self.battery_capacity_j <= 0 or self.rv_capacity_j <= 0:
            raise ValueError("capacities must be positive")
        if self.rv_speed_mps <= 0:
            raise ValueError("rv_speed_mps must be positive")
        if self.rv_moving_cost_j_per_m < 0:
            raise ValueError("rv_moving_cost_j_per_m must be non-negative")

    def with_overrides(self, **kwargs) -> "SimulationConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def paper(cls, **overrides) -> "SimulationConfig":
        """Exact Table II settings (120 simulated days, N = 500)."""
        return cls(**overrides)

    @classmethod
    def experiment(cls, **overrides) -> "SimulationConfig":
        """The calibrated configuration behind the figure reproductions.

        Four deliberate deviations from Table II, each needed for the
        paper's own mechanisms to be observable (see DESIGN.md §2 and
        EXPERIMENTS.md for the full rationale):

        * ``sensing_range_m = 14`` — Table II's 8 m yields clusters of
          2-3 sensors, making the ERP gate ``max(ceil(nc*K), 1)``
          almost a step function; the paper's own illustration (Fig. 3)
          shows ~9-sensor clusters.
        * ``target_period_s = 48 h`` — clusters must persist on the
          order of a recharge cycle for per-cluster request batching to
          exist; with 3 h churn the gate state is reshuffled ~20x
          between consecutive requests of the same sensor.
        * ``battery_capacity_j = 2 kJ`` and ``rv_capacity_j = 40 kJ`` —
          a scaled pack so that each sensor cycles several times inside
          the horizon, with a sortie budget large enough that the fleet
          can sustain even the full-time-activation baseline (fleet
          throughput is bounded by ``n_rvs * Cr / dispatch_period``).
        * ``charge power = 5 W`` — fast enough that the fleet's charging
          throughput exceeds the full-time baseline's demand; travel
          (not parked charging) dominates RV service time, which is the
          regime where route quality differentiates the schemes.
        * ``dispatch_period_s = 4 h`` — the base station schedules in
          batch rounds, matching the paper's "recharge schedule is
          calculated based on the updated recharge node list".
        """
        defaults = dict(
            sensing_range_m=14.0,
            target_period_s=48 * HOUR_S,
            battery_capacity_j=2000.0,
            rv_capacity_j=40_000.0,
            charge_model=ChargeModel(power_w=5.0),
            dispatch_period_s=4 * HOUR_S,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def small(cls, **overrides) -> "SimulationConfig":
        """A laptop-scale configuration for tests and quick examples:
        the same geometric density at a quarter of the scale, a two-day
        horizon, and a small battery so recharge cycles actually happen
        within the horizon."""
        defaults = dict(
            n_sensors=120,
            n_targets=5,
            n_rvs=2,
            side_length_m=100.0,
            sim_time_s=2 * DAY_S,
            tick_s=600.0,
            battery_capacity_j=800.0,
            initial_charge_range=(0.5, 0.9),
            rv_capacity_j=50_000.0,
        )
        defaults.update(overrides)
        return cls(**defaults)

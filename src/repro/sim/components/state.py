"""The typed state shared by the simulation subsystems.

:class:`SimulationState` owns everything that is *data* — positions,
batteries, network structure, targets, clusters, metrics, the event
engine and the RNG — while the behaviour lives in the four components
(:class:`~repro.sim.components.energy.EnergyAccounting`,
:class:`~repro.sim.components.clusters.ClusterManager`,
:class:`~repro.sim.components.gate.RequestGate`,
:class:`~repro.sim.components.fleet.FleetController`).  Components hold
a reference to the one shared state and communicate in time through the
event engine (``state.sim``), never by calling into each other's
internals.

:meth:`SimulationState.from_config` is the deterministic constructor:
the RNG draw order (sensor deployment, initial charge levels, target
placement) is part of the reproducibility contract — goldens pin it.

The static network (unit-disk graph, Dijkstra tree, uplink ETX) depends
only on the deployment, so :func:`static_network` builds it once per
deployment and process: every cell of a sweep that shares a seed shares
one network.  Its arrays are read-only, so an in-place write raises
instead of leaking into the next world of that deployment.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from ...core.clustering import ClusterSet
from ...core.requests import RechargeNodeList
from ...energy.battery import BatteryBank
from ...energy.consumption import NodePowerModel
from ...geometry.field import Field
from ...core import kernels
from ...network.routing import RoutingTree
from ...network.topology import Topology
from ...obs.log import NULL_BLACKBOX, NULL_LOG, NULL_MONITORS
from ...registry import MOBILITY_MODELS
from ..config import SimulationConfig
from ..engine import Simulator
from ..metrics import MetricsCollector
from ..soa import StateArrays

__all__ = [
    "NETWORK_MEMO_SIZE",
    "PRIO_DISPATCH",
    "PRIO_RELOCATE",
    "PRIO_RV",
    "PRIO_TICK",
    "SimulationState",
    "StaticNetwork",
    "static_network",
]

# Event priorities: energy/structure updates before scheduling.
PRIO_RELOCATE = 0
PRIO_TICK = 1
PRIO_DISPATCH = 2
PRIO_RV = 3

#: Deployments whose static network one process keeps.  ``map_cells``
#: varies the seed fastest, so this must be at least the number of
#: seeds in a grid (the built-in scales use at most 3).
NETWORK_MEMO_SIZE = 8


class StaticNetwork(NamedTuple):
    """The static network of one deployment; every array is read-only."""

    topology: Topology  # the unit-disk graph (plain lengths)
    routing: RoutingTree  # the Dijkstra tree to the base station
    uplink_etx: np.ndarray  # (n,) expected transmissions per uplink


def static_network(
    sensor_pos: np.ndarray,
    comm_range_m: float,
    base_station: np.ndarray,
    routing_metric: str,
) -> StaticNetwork:
    """The deployment's static network, built once per process.

    Keyed on the deployment's content (position bytes, range, base
    station, metric) in a memo of :data:`NETWORK_MEMO_SIZE` entries.
    """
    return _build_network(
        np.ascontiguousarray(sensor_pos, dtype=np.float64).tobytes(),
        float(comm_range_m),
        np.asarray(base_station, dtype=np.float64).reshape(2).tobytes(),
        routing_metric,
    )


@functools.lru_cache(maxsize=NETWORK_MEMO_SIZE)
def _build_network(
    positions: bytes, comm_range_m: float, base_station: bytes, routing_metric: str
) -> StaticNetwork:
    sensor_pos = np.frombuffer(positions).reshape(-1, 2)
    n = len(sensor_pos)
    topology = Topology(sensor_pos, comm_range_m, base_station=np.frombuffer(base_station))
    if routing_metric == "etx":
        from ...network.linkquality import apply_etx_metric  # the etx metric only

        etx_topology, _ = apply_etx_metric(topology)
        routing = RoutingTree(etx_topology)
        # Expected transmissions on each sensor's uplink: packets
        # relayed over a grey-zone link cost ETX times the energy.
        uplink_etx = kernels.uplink_etx_vector(
            topology.points, routing.parent, n, comm_range_m
        )
    else:
        routing = RoutingTree(topology)
        uplink_etx = np.ones(n, dtype=np.float64)
    for arr in (
        topology.points, topology.indptr, topology.indices, topology.weights,
        routing.topology.weights, routing.dist, routing.parent, uplink_etx,
    ):
        arr.flags.writeable = False
    return StaticNetwork(topology, routing, uplink_etx)


@dataclass
class SimulationState:
    """Everything the subsystems read and write, in one typed bundle."""

    cfg: SimulationConfig
    rng: np.random.Generator
    sim: Simulator
    field: Field
    power: NodePowerModel
    # -- sensors ----------------------------------------------------
    sensor_pos: np.ndarray
    bank: BatteryBank
    # -- static network ---------------------------------------------
    topology: Topology
    routing: RoutingTree
    uplink_etx: np.ndarray
    # -- SoA tick engine: flat aligned arrays + reusable scratch ------
    arrays: StateArrays
    # -- targets & clusters (maintained by ClusterManager) ----------
    targets: object
    cluster_set: Optional[ClusterSet] = None
    activator: Optional[object] = None
    coverable: Optional[np.ndarray] = None
    # -- accounting --------------------------------------------------
    metrics: MetricsCollector = field(default_factory=MetricsCollector)
    # -- request backlog (maintained by RequestGate) -----------------
    requests: RechargeNodeList = field(default_factory=RechargeNodeList)
    requested: np.ndarray = None  # type: ignore[assignment]
    # -- observability (NULL_* defaults = zero-overhead no-ops) ------
    log: object = NULL_LOG
    monitors: object = NULL_MONITORS
    blackbox: object = NULL_BLACKBOX

    def __post_init__(self) -> None:
        if self.requested is None:
            self.requested = np.zeros(self.cfg.n_sensors, dtype=bool)
        if self.log is None:
            self.log = NULL_LOG
        if self.monitors is None:
            self.monitors = NULL_MONITORS
        if self.blackbox is None:
            self.blackbox = NULL_BLACKBOX
        # Per-sensor views alias the canonical buffers: the arrays *are*
        # the state, not a copy of it.
        self.arrays.positions = self.sensor_pos
        self.arrays.levels_j = self.bank.levels_j
        self.arrays.requested = self.requested
        # Derived once here; EnergyAccounting keeps it current from then
        # on (see its module docstring).
        self.arrays.alive = self.bank.alive_mask()

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self.sim.now

    @classmethod
    def from_config(
        cls,
        config: SimulationConfig,
        log=None,
        monitors=None,
        blackbox=None,
    ) -> "SimulationState":
        """Deploy sensors, build the static network and the targets.

        The RNG consumption order here (deployment, charge levels,
        target placement) must never change: fixed-seed golden outputs
        depend on it.
        """
        rng = np.random.default_rng(config.seed)
        sim = Simulator()
        fld = Field(config.side_length_m)

        sensor_pos = fld.deploy_uniform(config.n_sensors, rng)
        bank = BatteryBank(
            config.n_sensors,
            capacity_j=config.battery_capacity_j,
            threshold_fraction=config.threshold_fraction,
        )
        lo, hi = config.initial_charge_range
        bank.levels_j = (
            rng.uniform(lo, hi, size=config.n_sensors) * config.battery_capacity_j
        )

        topology, routing, uplink_etx = static_network(
            sensor_pos, config.comm_range_m, fld.base_station, config.routing_metric
        )

        targets = MOBILITY_MODELS.build(
            config.target_mobility, field=fld, config=config, rng=rng
        )

        return cls(
            cfg=config,
            rng=rng,
            sim=sim,
            field=fld,
            power=config.power_model,
            sensor_pos=sensor_pos,
            bank=bank,
            topology=topology,
            routing=routing,
            uplink_etx=uplink_etx,
            arrays=StateArrays(config.n_sensors, config.n_rvs),
            targets=targets,
            log=log,
            monitors=monitors,
            blackbox=blackbox,
        )

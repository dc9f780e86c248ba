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

The deployment memo
-------------------

What the deployment fixes is derived once per deployment and process,
by :func:`static_network`: the unit-disk graph, the Dijkstra tree, the
uplink ETX, the tree's ancestor table (the relay counts' index) and, in
a bounded table, each target epoch's coverable mask and clusters.
Every cell of a sweep that shares a seed shares one entry.  Its arrays
are read-only, so an in-place write raises instead of leaking into the
next world of that deployment; each world keeps only its own scratch
(the packed cluster block, the activator).

A target epoch is the input of Algorithm 1: the target positions, the
alive mask, the sensing range and the resolved clustering callable.
Cells of one seed share it until their runs drain differently (the
36 short cells of a two-seed grid have 2 epochs between them), so
:meth:`StaticNetwork.target_epoch` keeps the last
:data:`EPOCH_MEMO_SIZE` epochs of a deployment.  A clustering must be a
pure function of its three arguments (see
:data:`repro.registry.CLUSTERINGS`).
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable, NamedTuple, Optional

import numpy as np

from ...core.clustering import ClusterSet
from ...core.requests import RechargeNodeList
from ...energy.battery import BatteryBank
from ...energy.consumption import NodePowerModel
from ...geometry.field import Field
from ...core import kernels
from ...network.routing import RoutingTree, ancestor_table
from ...network.topology import Topology
from ...obs.log import NULL_LOG, NULL_MONITORS
from ...registry import MOBILITY_MODELS
from ..config import SimulationConfig
from ..engine import Simulator
from ..metrics import MetricsCollector
from ..soa import StateArrays

__all__ = [
    "EPOCH_MEMO_SIZE",
    "NETWORK_MEMO_SIZE",
    "PRIO_DISPATCH",
    "PRIO_RELOCATE",
    "PRIO_RV",
    "PRIO_TICK",
    "SimulationState",
    "StaticNetwork",
    "TargetEpoch",
    "static_network",
]

# Event priorities: energy/structure updates before scheduling.
PRIO_RELOCATE = 0
PRIO_TICK = 1
PRIO_DISPATCH = 2
PRIO_RV = 3

#: Deployments one process keeps.  ``map_cells`` varies the seed
#: fastest, but the executor runs a grid's misses grouped by deployment,
#: so a grid over any number of seeds derives each deployment once.
NETWORK_MEMO_SIZE = 8

#: Target epochs one deployment keeps (least recently used first out).
#: A sweep's cells of one seed visit the same epochs in the same order,
#: so this covers the epochs one cell forms before its runs diverge.
EPOCH_MEMO_SIZE = 16


class TargetEpoch(NamedTuple):
    """Algorithm 1's output for one target epoch; arrays read-only."""

    coverable: np.ndarray  # (m,) bool: some deployed sensor sees the target
    cluster_set: ClusterSet  # one cluster per target, over the alive sensors


class StaticNetwork(NamedTuple):
    """What one deployment fixes; every array is read-only."""

    topology: Topology  # the unit-disk graph (plain lengths)
    routing: RoutingTree  # the Dijkstra tree to the base station
    uplink_etx: np.ndarray  # (n,) expected transmissions per uplink
    ancestors: np.ndarray  # (n, depth) each sensor's strict ancestors, padded with n
    epochs: "OrderedDict[Hashable, TargetEpoch]"  # see target_epoch

    def target_epoch(
        self, key: Hashable, form: Callable[[], TargetEpoch]
    ) -> TargetEpoch:
        """The epoch ``key`` names, formed by ``form()`` on a miss.

        ``key`` must name everything ``form`` reads besides the
        deployment.  The formed epoch's arrays are made read-only.
        """
        epochs = self.epochs
        epoch = epochs.get(key)
        if epoch is not None:
            epochs.move_to_end(key)
            return epoch
        epoch = form()
        epoch.coverable.flags.writeable = False
        epoch.cluster_set.membership.flags.writeable = False
        for c in epoch.cluster_set:
            c.members.flags.writeable = False
        epochs[key] = epoch
        while len(epochs) > EPOCH_MEMO_SIZE:
            epochs.popitem(last=False)
        return epoch


def static_network(
    sensor_pos: np.ndarray,
    comm_range_m: float,
    base_station: np.ndarray,
    routing_metric: str,
) -> StaticNetwork:
    """The deployment's memo entry, built once per process.

    Keyed on the deployment's content (position bytes, range, base
    station, metric) in a memo of :data:`NETWORK_MEMO_SIZE` entries;
    its target epochs start empty.
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
    ancestors = ancestor_table(routing.parent, routing.base, n)
    for arr in (
        topology.points, topology.indptr, topology.indices, topology.weights,
        routing.topology.weights, routing.dist, routing.parent, uplink_etx,
        ancestors,
    ):
        arr.flags.writeable = False
    return StaticNetwork(topology, routing, uplink_etx, ancestors, OrderedDict())


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
    # -- static network (the deployment memo's entry, and its parts) --
    network: StaticNetwork
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

    def __post_init__(self) -> None:
        if self.requested is None:
            self.requested = np.zeros(self.cfg.n_sensors, dtype=bool)
        if self.log is None:
            self.log = NULL_LOG
        if self.monitors is None:
            self.monitors = NULL_MONITORS
        # Per-sensor views alias the canonical buffers: the arrays *are*
        # the state, not a copy of it.
        self.arrays.positions = self.sensor_pos
        self.arrays.levels_j = self.bank.levels_j
        self.arrays.requested = self.requested
        # Derived once here; EnergyAccounting keeps it (and its key)
        # current from then on (see its module docstring).
        self.arrays.alive = self.bank.alive_mask()
        self.arrays.alive_key = self.arrays.alive.tobytes()

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

        network = static_network(
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
            network=network,
            topology=network.topology,
            routing=network.routing,
            uplink_etx=network.uplink_etx,
            arrays=StateArrays(config.n_sensors, config.n_rvs),
            targets=targets,
            log=log,
            monitors=monitors,
        )

"""repro — Joint Wireless Charging and Sensor Activity Management in WRSNs.

A production-quality reproduction of Gao, Wang & Yang (ICPP 2015):
balanced clustering, round-robin sensor activation, Energy Request
Control, and the greedy / insertion / Partition / Combined recharge
schedulers, on top of a full WRSN simulation substrate (geometry,
energy, multi-hop routing, mobile targets, recharging vehicles, and a
deterministic discrete-event engine).

Quickstart::

    from repro import SimulationConfig, run_simulation

    cfg = SimulationConfig.small(scheduler="partition", erp=0.6)
    summary = run_simulation(cfg)
    print(summary.traveling_energy_mj, summary.avg_coverage_ratio)

The names below resolve on first access (:mod:`repro._lazy`), so
importing the package loads none of its submodules.
"""

from ._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".core.clustering": ("balanced_clustering", "nearest_target_clustering"),
    ".core.combined": ("CombinedScheduler",),
    ".core.erc": ("EnergyRequestController",),
    ".core.greedy": ("GreedyScheduler",),
    ".core.insertion": ("InsertionScheduler",),
    ".core.mip": ("RechargeInstance", "solve_exact_single_rv", "verify_routes"),
    ".core.partition": ("PartitionScheduler",),
    ".core.requests": ("RechargeNodeList", "RechargeRequest"),
    ".geometry.field": ("Field", "minimum_sensors_eq1"),
    ".obs.log": ("EventLog",),
    ".obs.manifest": ("RunManifest",),
    ".registry": (
        "ACTIVATORS",
        "CLUSTERINGS",
        "ERC_POLICIES",
        "MOBILITY_MODELS",
        "SCHEDULERS",
        "ComponentSpec",
        "Registry",
    ),
    ".sim.config": ("DAY_S", "HOUR_S", "SimulationConfig"),
    ".sim.metrics": ("SimulationSummary",),
    ".sim.runner": ("make_scheduler", "run_seeds", "run_simulation", "run_with_telemetry"),
    ".sim.soa": ("FullTimeActivator", "RoundRobinActivator"),
    ".sim.world": ("World",),
})

__version__ = "1.0.0"

__all__ = [
    "ACTIVATORS",
    "CLUSTERINGS",
    "ComponentSpec",
    "CombinedScheduler",
    "DAY_S",
    "ERC_POLICIES",
    "MOBILITY_MODELS",
    "Registry",
    "SCHEDULERS",
    "EnergyRequestController",
    "EventLog",
    "Field",
    "FullTimeActivator",
    "GreedyScheduler",
    "HOUR_S",
    "InsertionScheduler",
    "RunManifest",
    "PartitionScheduler",
    "RechargeInstance",
    "RechargeNodeList",
    "RechargeRequest",
    "RoundRobinActivator",
    "SimulationConfig",
    "SimulationSummary",
    "World",
    "balanced_clustering",
    "make_scheduler",
    "minimum_sensors_eq1",
    "nearest_target_clustering",
    "run_seeds",
    "run_simulation",
    "run_with_telemetry",
    "solve_exact_single_rv",
    "verify_routes",
    "__version__",
]

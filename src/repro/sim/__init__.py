"""Discrete-event simulation of the WRSN world."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".components.clusters": ("ClusterManager",),
    ".components.energy": ("EnergyAccounting",),
    ".components.fleet": ("FleetController",),
    ".components.gate": ("RequestGate",),
    ".components.state": ("SimulationState",),
    ".config": ("DAY_S", "HOUR_S", "SimulationConfig"),
    ".engine": ("EventHandle", "Simulator"),
    ".metrics": ("MetricsCollector", "SimulationSummary"),
    ".runner": (
        "average_summaries",
        "make_scheduler",
        "run_seeds",
        "run_simulation",
        "run_with_telemetry",
    ),
    ".world": ("World",),
})

__all__ = [
    "ClusterManager",
    "DAY_S",
    "EnergyAccounting",
    "EventHandle",
    "FleetController",
    "HOUR_S",
    "MetricsCollector",
    "RequestGate",
    "SimulationConfig",
    "SimulationState",
    "SimulationSummary",
    "Simulator",
    "World",
    "average_summaries",
    "make_scheduler",
    "run_seeds",
    "run_simulation",
    "run_with_telemetry",
]

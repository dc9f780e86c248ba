"""Discrete-event simulation of the WRSN world."""

from .components import (
    ClusterManager,
    EnergyAccounting,
    FleetController,
    RequestGate,
    SimulationState,
)
from .config import DAY_S, HOUR_S, SimulationConfig
from .engine import EventHandle, Simulator
from .metrics import MetricsCollector, SimulationSummary
from .runner import (
    average_summaries,
    make_scheduler,
    run_seeds,
    run_simulation,
    run_with_telemetry,
)
from .world import World

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

"""Mobile entities: targets and recharging vehicles."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".targets": ("TargetProcess",),
    ".vehicles": ("RechargingVehicle", "RVStats"),
    ".waypoint": ("RandomWaypointProcess",),
})

__all__ = ["RandomWaypointProcess", "RechargingVehicle", "RVStats", "TargetProcess"]

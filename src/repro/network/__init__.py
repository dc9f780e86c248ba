"""Multi-hop network substrate: topology, routing, link quality."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".dijkstra": ("shortest_paths",),
    ".linkquality": ("apply_etx_metric", "etx_weights", "prr_from_distance"),
    ".routing": ("RoutingTree", "ancestor_table"),
    ".topology": ("Topology",),
})

__all__ = [
    "RoutingTree",
    "Topology",
    "ancestor_table",
    "apply_etx_metric",
    "etx_weights",
    "prr_from_distance",
    "shortest_paths",
]

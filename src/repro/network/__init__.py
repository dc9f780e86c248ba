"""Multi-hop network substrate: topology, routing, traffic accounting."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".dijkstra": ("shortest_paths",),
    ".linkquality": ("apply_etx_metric", "etx_weights", "prr_from_distance"),
    ".routing": ("RoutingTree", "SubtreeIndex", "ancestor_table", "subtree_index"),
    ".topology": ("Topology",),
    ".traffic": ("relay_rates", "subtree_rates"),
})

__all__ = [
    "RoutingTree",
    "SubtreeIndex",
    "Topology",
    "ancestor_table",
    "apply_etx_metric",
    "etx_weights",
    "prr_from_distance",
    "relay_rates",
    "shortest_paths",
    "subtree_index",
    "subtree_rates",
]

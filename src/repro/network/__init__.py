"""Multi-hop network substrate: topology, routing, traffic accounting."""

from .dijkstra import shortest_paths
from .linkquality import apply_etx_metric, etx_weights, prr_from_distance
from .routing import RoutingTree, SubtreeIndex, subtree_index
from .topology import Topology
from .traffic import relay_rates, subtree_rates

__all__ = [
    "RoutingTree",
    "SubtreeIndex",
    "Topology",
    "apply_etx_metric",
    "etx_weights",
    "prr_from_distance",
    "relay_rates",
    "shortest_paths",
    "subtree_index",
    "subtree_rates",
]

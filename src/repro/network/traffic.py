"""Per-node traffic accounting on the routing tree.

Active sensors originate ``lambda`` packets per second; every packet is
forwarded hop by hop to the base station.  A node's *relay* load is the
rate of packets it forwards for others — each costing one receive plus
one transmit (its own originations cost only the transmit, which the
power model charges to the active node).

The loads come from the tree's DFS preorder
(:func:`~repro.network.routing.subtree_index`, the layout the
simulator's relay counts use too): every subtree is one contiguous preorder range, so one
``cumsum`` of the rates in preorder gives every vertex's load as the
difference of two prefix sums.  The sums run in preorder, not in a
per-vertex order, so the loads match a hop-by-hop accumulation to
rounding, not bit for bit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .routing import RoutingTree, SubtreeIndex, subtree_index

__all__ = ["relay_rates", "subtree_rates"]


def subtree_rates(tree: RoutingTree, origination_rates: np.ndarray) -> np.ndarray:
    """Total packet rate passing *through* each vertex (own + relayed).

    Args:
        tree: the routing tree.
        origination_rates: packets/second originated by each sensor
            (length ``n_sensors``); disconnected sensors are ignored —
            their packets never enter the network.

    Returns:
        Array of length ``n_sensors + 1`` (the base is last): packets per
        second carried by each vertex.  The base entry is the total
        delivered rate.
    """
    index, cs = _preorder_sums(tree, origination_rates)
    through = np.zeros(len(tree.topology), dtype=np.float64)
    through[: tree.n_sensors] = cs[index.tout] - cs[index.tin]
    through[tree.base] = cs[-1]
    return through


def relay_rates(tree: RoutingTree, origination_rates: np.ndarray) -> np.ndarray:
    """Packets/second each *sensor* forwards on behalf of others.

    ``relay = through - own`` for connected sensors (the rates of the
    strict subtree); zero otherwise.  The prefix sums of non-negative
    rates never decrease, so no load comes out negative.
    """
    index, cs = _preorder_sums(tree, origination_rates)
    return cs[index.tout] - cs[index.tsub]


def _preorder_sums(
    tree: RoutingTree, origination_rates: np.ndarray
) -> Tuple[SubtreeIndex, np.ndarray]:
    """Validate the rates; return the tree's :class:`SubtreeIndex` and
    the prefix sums of the rates in its preorder (``cs[0] == 0``).
    Disconnected sensors are not in the preorder, so their rates count
    nowhere."""
    origination_rates = np.asarray(origination_rates, dtype=np.float64)
    if origination_rates.shape != (tree.n_sensors,):
        raise ValueError(
            f"expected origination rates of shape ({tree.n_sensors},), got {origination_rates.shape}"
        )
    if np.any(origination_rates < 0):
        raise ValueError("origination rates must be non-negative")
    index = subtree_index(tree.parent, tree.base, tree.n_sensors)
    cs = np.zeros(len(index.pre) + 1, dtype=np.float64)
    np.cumsum(origination_rates[index.pre], out=cs[1:])
    return index, cs

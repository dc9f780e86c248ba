"""Cluster maintenance: relocation, re-clustering, activator wiring.

The :class:`ClusterManager` owns the target→cluster→activator pipeline:
whenever targets move (or sensors die at construction time), it re-runs
the configured clustering algorithm over the currently alive sensors,
refreshes the *coverable* mask that normalizes the coverage metric, and
rebuilds the configured activation scheme over the new clusters — all
published on the shared :class:`~repro.sim.components.state.SimulationState`.
"""

from __future__ import annotations

import logging

import numpy as np

from ...core.clustering import Cluster, ClusterSet
from ...geometry.coverage import detection_matrix
from ...obs.log import EventKind
from ...registry import ACTIVATORS, CLUSTERINGS
from ..soa import pack_clusters
from .state import SimulationState

__all__ = ["ClusterManager"]

logger = logging.getLogger(__name__)


class ClusterManager:
    """Keeps ``state.cluster_set``, ``state.activator`` and
    ``state.coverable`` consistent with the current target epoch."""

    def __init__(self, state: SimulationState) -> None:
        self.s = state
        self._cluster_fn = CLUSTERINGS.get(
            getattr(state.cfg, "clustering", "balanced")
        )
        self.rebuild()

    def rebuild(self) -> None:
        """Re-form clusters over the alive sensors for the current targets."""
        with self.s.log.phase("clusters.rebuild") as span:
            self._rebuild()
            span.set(clusters=len(self.s.cluster_set))

    def _rebuild(self) -> None:
        s = self.s
        # A target is *coverable* if any deployed sensor (alive or not)
        # could see it: the coverage-ratio metric is normalized against
        # these, so it reports scheduling quality, not deployment luck.
        det = detection_matrix(s.sensor_pos, s.targets.positions, s.cfg.sensing_range_m)
        s.coverable = det.any(axis=0)
        alive_idx = np.flatnonzero(s.bank.alive_mask())
        local = self._cluster_fn(
            s.sensor_pos[alive_idx], s.targets.positions, s.cfg.sensing_range_m
        )
        clusters = [
            Cluster(c.cluster_id, alive_idx[c.members]) if c.size else Cluster(c.cluster_id, c.members)
            for c in local
        ]
        s.cluster_set = ClusterSet(clusters, s.cfg.n_sensors)
        # Repack the padded member matrix for the new epoch: the
        # activator and the gate's ERC scan read it.
        pack_clusters(s.cluster_set, s.arrays)
        s.activator = ACTIVATORS.build(
            s.cfg.activation, cluster_set=s.cluster_set, arrays=s.arrays
        )

    def relocate(self) -> None:
        """Move targets to their next epoch and rebuild the clusters."""
        s = self.s
        s.targets.relocate()
        logger.debug("t=%.0fs: targets relocated (epoch %d)", s.now, s.targets.epoch)
        s.log.emit(s.now, EventKind.TARGETS_RELOCATED, s.targets.epoch)
        self.rebuild()

    def rotate(self) -> np.ndarray:
        """Advance the activation rotation by one slot.

        Returns the ``(k, 2)`` hand-off pairs reported by the activator
        (empty for schemes without rotation); the energy cost of the
        notification packets is the energy component's business.
        """
        s = self.s
        handoffs = s.activator.rotate(s.arrays.alive)
        if len(handoffs):
            s.log.emit(s.now, EventKind.ROTATION, -1, float(len(handoffs)))
        return handoffs

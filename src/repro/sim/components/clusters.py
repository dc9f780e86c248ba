"""Cluster maintenance: relocation, re-clustering, activator wiring.

The :class:`ClusterManager` owns the target→cluster→activator pipeline:
whenever targets move (or sensors die at construction time), it re-runs
the configured clustering algorithm over the currently alive sensors,
refreshes the *coverable* mask that normalizes the coverage metric, and
rebuilds the configured activation scheme over the new clusters — all
published on the shared :class:`~repro.sim.components.state.SimulationState`.

The clusters and the coverable mask of a target epoch are a pure
function of the deployment, the target positions, the alive mask, the
sensing range and the clustering, so they come from the deployment
memo (:meth:`~repro.sim.components.state.StaticNetwork.target_epoch`),
read-only and shared by every world of the deployment that reaches the
same epoch.  Each world still packs its own cluster block and builds
its own activator.
"""

from __future__ import annotations

import logging

import numpy as np

from ...core.clustering import Cluster, ClusterSet
from ...geometry.coverage import detection_matrix
from ...obs.log import EventKind
from ...registry import ACTIVATORS, CLUSTERINGS
from ..soa import pack_clusters
from .state import SimulationState, TargetEpoch

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
        targets = np.ascontiguousarray(s.targets.positions, dtype=np.float64)
        alive = s.bank.alive_mask()
        # The epoch's key: the targets' bytes and the alive mask packed
        # to bits (the sensor count is the deployment's).
        key = (
            targets.tobytes(),
            np.packbits(alive).tobytes(),
            float(s.cfg.sensing_range_m),
            self._cluster_fn,
        )
        s.coverable, s.cluster_set = s.network.target_epoch(
            key, lambda: self._form(targets, alive)
        )
        # Repack the padded member matrix for the new epoch: the
        # activator and the gate's ERC scan read it.
        pack_clusters(s.cluster_set, s.arrays)
        s.activator = ACTIVATORS.build(
            s.cfg.activation, cluster_set=s.cluster_set, arrays=s.arrays
        )

    def _form(self, targets: np.ndarray, alive: np.ndarray) -> TargetEpoch:
        """Algorithm 1 over the alive sensors for ``targets``."""
        s = self.s
        # A target is *coverable* if any deployed sensor (alive or not)
        # could see it: the coverage-ratio metric is normalized against
        # these, so it reports scheduling quality, not deployment luck.
        det = detection_matrix(s.sensor_pos, targets, s.cfg.sensing_range_m)
        alive_idx = np.flatnonzero(alive)
        local = self._cluster_fn(s.sensor_pos[alive_idx], targets, s.cfg.sensing_range_m)
        clusters = [
            Cluster(c.cluster_id, alive_idx[c.members]) if c.size else Cluster(c.cluster_id, c.members)
            for c in local
        ]
        return TargetEpoch(det.any(axis=0), ClusterSet(clusters, s.cfg.n_sensors))

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
        if s.log.enabled and len(handoffs):
            s.log.emit(s.now, EventKind.ROTATION, -1, float(len(handoffs)))
        return handoffs

"""Sensor activation schemes (Section III-C).

Two policies decide which cluster members actively monitor their target:

* :class:`FullTimeActivator` — every alive member is always on.  This is
  the behaviour of the prior recharging literature the paper compares
  against.
* :class:`RoundRobinActivator` — exactly one member monitors per slot,
  rotation starting from the lowest sensor ID.  A retiring sensor sends
  a notification packet to its successor; if the successor is depleted
  (no acknowledgement), the rotation skips to the next alive member.

Both expose the same interface so the simulation world can swap them:
``active_sensor_per_cluster`` (who covers each target right now) and
``active_mask`` (who burns active-sensing power).

The simulator runs the structure-of-arrays twins of these classes
(``SoARoundRobinActivator`` / ``SoAFullTimeActivator`` in
:mod:`repro.sim.soa`), which are bit-exact to the per-cluster loops
here; ``wrap_activator`` swaps in a twin only for these exact types,
so a plugin activator — including a subclass — runs its own code.  The
loops are the specification the tier-1 parity tests check the array
kernels against: changes to the rotation semantics here must be
mirrored there.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .clustering import ClusterSet

__all__ = ["FullTimeActivator", "RoundRobinActivator"]


class FullTimeActivator:
    """All alive cluster members monitor simultaneously."""

    #: Full-time duty never rotates, so the simulation's tick skips the
    #: hand-off bookkeeping and rate refresh entirely.
    rotates = False

    def __init__(self, cluster_set: ClusterSet) -> None:
        self.cluster_set = cluster_set

    def active_mask(self, alive: np.ndarray) -> np.ndarray:
        """Boolean mask over sensors: actively sensing right now."""
        return self.cluster_set.clustered_mask() & alive

    def active_sensor_per_cluster(self, alive: np.ndarray) -> np.ndarray:
        """A representative active sensor per cluster (-1 if none alive).

        With full-time activation any alive member covers the target;
        the lowest-ID one is reported for determinism.
        """
        out = np.full(len(self.cluster_set), -1, dtype=np.int64)
        for c in self.cluster_set:
            alive_members = c.members[alive[c.members]]
            if len(alive_members) > 0:
                out[c.cluster_id] = alive_members[0]
        return out

    def covered_mask(self, alive: np.ndarray) -> np.ndarray:
        """Boolean per target: someone alive is monitoring it."""
        return self.active_sensor_per_cluster(alive) >= 0

    def rotate(self, alive: np.ndarray) -> np.ndarray:
        """No-op for interface parity; returns no hand-offs."""
        return np.empty((0, 2), dtype=np.int64)


class RoundRobinActivator:
    """Distributed round-robin activation within every cluster.

    The rotation pointer of each cluster walks its (ID-sorted) member
    list one step per slot; depleted members are skipped, emulating the
    unacknowledged-notification fallback of Section III-C.  Hand-offs
    are reported so the simulator can charge notification-packet energy
    to the participants.
    """

    #: The tick rotates the duty and refreshes draw rates every slot.
    rotates = True

    def __init__(self, cluster_set: ClusterSet) -> None:
        self.cluster_set = cluster_set
        # Pointer into each cluster's member array. Starts at the lowest
        # ID (members are sorted), per the paper.
        self._ptr = np.zeros(len(cluster_set), dtype=np.int64)

    def _first_alive_from(self, cluster_id: int, start: int, alive: np.ndarray) -> Optional[int]:
        """Member *slot* of the first alive member at or after ``start``
        (wrapping), or None if the cluster is entirely depleted."""
        members = self.cluster_set[cluster_id].members
        nc = len(members)
        if nc == 0:
            return None
        for step in range(nc):
            slot = (start + step) % nc
            if alive[members[slot]]:
                return slot
        return None

    def active_sensor_per_cluster(self, alive: np.ndarray) -> np.ndarray:
        """The sensor currently monitoring each target (-1 if none)."""
        out = np.full(len(self.cluster_set), -1, dtype=np.int64)
        for c in self.cluster_set:
            slot = self._first_alive_from(c.cluster_id, int(self._ptr[c.cluster_id]), alive)
            if slot is not None:
                out[c.cluster_id] = c.members[slot]
        return out

    def active_mask(self, alive: np.ndarray) -> np.ndarray:
        """Boolean mask over sensors: actively sensing right now."""
        mask = np.zeros(self.cluster_set.n_sensors, dtype=bool)
        actives = self.active_sensor_per_cluster(alive)
        mask[actives[actives >= 0]] = True
        return mask

    def covered_mask(self, alive: np.ndarray) -> np.ndarray:
        """Boolean per target: someone alive is monitoring it."""
        return self.active_sensor_per_cluster(alive) >= 0

    def rotate(self, alive: np.ndarray) -> np.ndarray:
        """Advance every cluster's pointer by one slot.

        Returns:
            ``(k, 2)`` array of hand-offs ``(retiring_sensor,
            successor_sensor)`` for clusters where the duty actually
            moved between two alive sensors — each costs the retiring
            node a notification TX and the successor an RX.
        """
        handoffs = []
        for c in self.cluster_set:
            nc = c.size
            if nc == 0:
                continue
            cur_slot = self._first_alive_from(c.cluster_id, int(self._ptr[c.cluster_id]), alive)
            if cur_slot is None:
                continue
            nxt_slot = self._first_alive_from(c.cluster_id, (cur_slot + 1) % nc, alive)
            self._ptr[c.cluster_id] = nxt_slot if nxt_slot is not None else cur_slot
            if nxt_slot is not None and nxt_slot != cur_slot:
                handoffs.append((int(c.members[cur_slot]), int(c.members[nxt_slot])))
        if not handoffs:
            return np.empty((0, 2), dtype=np.int64)
        return np.array(handoffs, dtype=np.int64)

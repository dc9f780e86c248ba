"""Energy Request Control (Section III-B).

The **Energy Request Percentage** (ERP, the paper's ``K``) is the
maximum allowable fraction of a cluster that may sit below the recharge
threshold *without* sending requests.  Once at least
``max(ceil(nc * K), 1)`` members of an ``nc``-sensor cluster are below
threshold, the whole backlog is released at once, so one RV trip into
the cluster serves every needy member.

``K = 0`` degenerates to the classic immediate-request policy of the
prior work (any node below threshold requests right away) — that is the
paper's "No ERC" configuration.  Unclustered sensors always behave like
singleton clusters and request immediately.

The controller also captures the paper's worst-case traveling-energy
analysis: with ERC the RV travels ``2 * nc / max(nc * K, 1) * dist``
instead of ``2 * nc * dist`` to keep a cluster alive.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "AdaptiveEnergyRequestController",
    "EnergyRequestController",
    "erc_travel_energy_bound",
    "release_count_needed",
]


def release_count_needed(cluster_size: int, erp: float) -> int:
    """Members below threshold required before the cluster requests.

    ``max(ceil(nc * K), 1)`` — at least one node must be needy for any
    request to make sense, and ``K = 0`` releases on the first.
    """
    if cluster_size < 0:
        raise ValueError("cluster_size must be non-negative")
    if not 0.0 <= erp <= 1.0:
        raise ValueError("erp must lie in [0, 1]")
    return max(int(np.ceil(cluster_size * erp)), 1)


def erc_travel_energy_bound(
    cluster_size: int,
    dist_m: float,
    em_j_per_m: float,
    erp: float,
) -> float:
    """Worst-case RV traveling energy to serve one cluster's cycle.

    The paper's Section III-B estimate: without ERC each of the ``nc``
    members may trigger its own round trip (``2 * nc * dist * em``);
    with ERC trips amortize over ``max(nc * K, 1)`` members.
    """
    if dist_m < 0 or em_j_per_m < 0:
        raise ValueError("distance and energy rate must be non-negative")
    batch = max(cluster_size * erp, 1.0)
    return 2.0 * cluster_size / batch * dist_m * em_j_per_m


class EnergyRequestController:
    """The paper's ERC policy: a fixed ERP.

    Args:
        erp: the Energy Request Percentage ``K`` in ``[0, 1]``.

    A policy only carries ``K``; the request gate
    (:class:`repro.sim.components.gate.RequestGate`) applies it with
    the scan :func:`repro.sim.soa.erc_release` and reads ``erp`` on
    every scan, so a policy may retune it between scans.
    """

    def __init__(self, erp: float) -> None:
        if not 0.0 <= erp <= 1.0:
            raise ValueError("erp must lie in [0, 1]")
        self.erp = float(erp)


class AdaptiveEnergyRequestController(EnergyRequestController):
    """ERP with closed-loop tuning (beyond the paper).

    The paper leaves picking ``K`` to offline sweeps ("finding an
    appropriate ERP value is important in practice").  This controller
    automates the knee search online: while no sensor dies, ``K`` creeps
    up (harvesting travel savings); any depletion knocks it down
    multiplicatively (protecting coverage).  An AIMD loop, evaluated
    every ``adjust_period_s``.

    Args:
        initial_erp: starting ``K``.
        adjust_period_s: evaluation cadence.
        step_up: additive increase per quiet period.
        backoff: multiplicative decrease factor applied on deaths.
        erp_min / erp_max: clamp bounds for ``K``.
    """

    def __init__(
        self,
        initial_erp: float = 0.4,
        adjust_period_s: float = 12 * 3600.0,
        step_up: float = 0.05,
        backoff: float = 0.5,
        erp_min: float = 0.0,
        erp_max: float = 1.0,
    ) -> None:
        super().__init__(initial_erp)
        if adjust_period_s <= 0:
            raise ValueError("adjust_period_s must be positive")
        if step_up < 0 or not 0.0 < backoff <= 1.0:
            raise ValueError("invalid AIMD parameters")
        if not 0.0 <= erp_min <= erp_max <= 1.0:
            raise ValueError("erp bounds must satisfy 0 <= min <= max <= 1")
        self.adjust_period_s = float(adjust_period_s)
        self.step_up = float(step_up)
        self.backoff = float(backoff)
        self.erp_min = float(erp_min)
        self.erp_max = float(erp_max)
        self._deaths_since_adjust = 0
        self._last_adjust_s = 0.0
        self.history = [(0.0, self.erp)]

    def observe_deaths(self, count: int) -> None:
        """Report sensor depletions (called by the world)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._deaths_since_adjust += count

    def maybe_adjust(self, now_s: float) -> bool:
        """Run one AIMD step if the adjustment period elapsed.

        Returns True when ``erp`` changed.
        """
        if now_s - self._last_adjust_s < self.adjust_period_s:
            return False
        self._last_adjust_s = now_s
        old = self.erp
        if self._deaths_since_adjust > 0:
            self.erp = max(self.erp_min, self.erp * self.backoff)
        else:
            self.erp = min(self.erp_max, self.erp + self.step_up)
        self._deaths_since_adjust = 0
        if self.erp != old:
            self.history.append((now_s, self.erp))
        return self.erp != old

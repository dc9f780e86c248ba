"""Battery models.

Two flavours live here:

* :class:`Battery` — a scalar battery used by the recharging vehicles.
* :class:`BatteryBank` — a vectorized bank of N identical sensor
  batteries backed by a single NumPy array, so the simulator can drain
  and query the whole network at once.

The paper equips sensors with two AAA Panasonic Ni-MH cells behind a
3 V regulator [15].  We model the pack as a linear energy reservoir of
capacity ``Ec`` Joules with a recharge threshold ``Eth`` (Table II sets
``Eth = 50%`` of ``Ec``).  Energy demand of a node — the quantity the
schedulers maximize — is ``Ec - level`` (Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Battery", "BatteryBank", "DEFAULT_SENSOR_CAPACITY_J"]

#: Two AAA Ni-MH cells (~750 mAh each, in series behind a 3 V supply):
#: 0.75 Ah * 3600 s/h * 3 V ~= 8.1 kJ of usable pack energy.
DEFAULT_SENSOR_CAPACITY_J = 8100.0


@dataclass
class Battery:
    """A single linear battery with capacity ``capacity_j`` Joules."""

    capacity_j: float
    level_j: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.capacity_j <= 0:
            raise ValueError("capacity_j must be positive")
        if self.level_j is None:
            self.level_j = self.capacity_j
        if not 0.0 <= self.level_j <= self.capacity_j:
            raise ValueError("level_j must lie in [0, capacity_j]")

    def drain(self, amount_j: float) -> float:
        """Remove up to ``amount_j``; returns the energy actually drawn.

        Draining clamps at empty rather than going negative — a depleted
        node simply stops operating (paper: "nonfunctional").
        """
        if amount_j < 0:
            raise ValueError("amount_j must be non-negative")
        drawn = min(amount_j, self.level_j)
        self.level_j -= drawn
        return drawn

    def refill(self) -> float:
        """Charge to full; returns the energy added."""
        added = self.capacity_j - self.level_j
        self.level_j = self.capacity_j
        return added


class BatteryBank:
    """N identical sensor batteries stored as one float64 vector.

    All mutating operations are vectorized; indexing accepts anything
    NumPy fancy-indexing accepts.  The simulator keeps the levels in
    ``[0, capacity]`` — sensors neither overcharge nor hold debt.

    Args:
        n: number of batteries.
        capacity_j: per-battery capacity in Joules.
        threshold_fraction: recharge threshold ``Eth`` as a fraction of
            capacity (Table II: 0.5).
        initial_fraction: initial state of charge (default full).
    """

    def __init__(
        self,
        n: int,
        capacity_j: float = DEFAULT_SENSOR_CAPACITY_J,
        threshold_fraction: float = 0.5,
        initial_fraction: float = 1.0,
    ) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        if capacity_j <= 0:
            raise ValueError("capacity_j must be positive")
        if not 0.0 <= threshold_fraction <= 1.0:
            raise ValueError("threshold_fraction must lie in [0, 1]")
        if not 0.0 <= initial_fraction <= 1.0:
            raise ValueError("initial_fraction must lie in [0, 1]")
        self.capacity_j = float(capacity_j)
        self.threshold_fraction = float(threshold_fraction)
        self.levels_j = np.full(n, capacity_j * initial_fraction, dtype=np.float64)

    @property
    def threshold_j(self) -> float:
        """Absolute recharge threshold ``Eth`` in Joules."""
        return self.capacity_j * self.threshold_fraction

    def alive_mask(self) -> np.ndarray:
        """Nodes still holding energy."""
        return self.levels_j > 0.0

    def drain_unclamped(
        self, rates_w: np.ndarray, dt_s: float, scratch: np.ndarray
    ) -> None:
        """Advance every battery by ``dt_s`` seconds at per-node draw
        ``rates_w`` (Watts): ``levels -= rates_w * dt_s``.

        This is the simulator's analytic piecewise-linear energy step:
        between events the power vector is constant, so one vectorized
        multiply-subtract advances the entire network.  Nothing is
        checked or clamped here: ``rates_w`` must be a non-negative
        float64 array of bank shape (the simulator validates its rates
        where it makes them, once per re-pricing), ``dt_s >= 0`` and
        ``scratch`` a caller-owned float64 buffer of bank shape that
        receives the ``rates * dt`` product, so the steady-state advance
        allocates nothing.  A level may end below zero; the caller
        clamps it at empty.
        """
        drained = np.multiply(rates_w, dt_s, out=scratch)
        np.subtract(self.levels_j, drained, out=self.levels_j)

    def charge_to_full(self, idx) -> float:
        """Refill the nodes in ``idx`` (one node id or an index array);
        returns total energy delivered."""
        before = self.levels_j[idx]
        self.levels_j[idx] = self.capacity_j
        if np.ndim(before) == 0:  # one node: the demand itself
            return float(self.capacity_j - before)
        return float(np.sum(self.capacity_j - before))

"""Energy accounting: analytic battery advance and rate bookkeeping.

The :class:`EnergyAccounting` component owns the piecewise-constant
power model of the whole sensor network:

* :meth:`recompute` refreshes the per-sensor draw vector (idle +
  active sensing + ETX-weighted relay load + optional leakage) from the
  current activation and routing state;
* :meth:`advance` drains every battery analytically for the elapsed
  interval and reports depletions (trace events + a death callback for
  the ERC policy);
* :meth:`apply_handoffs` charges rotation notification packets;
* :meth:`breakdown` exposes the cumulative per-category Joules.

Between events nothing integrates numerically — the engine only fires
bookkeeping ticks, so a 120-day horizon costs a few hundred events.

Rate recomputation
------------------

``recompute`` runs on every rotation slot and always takes one full
pass: idle + sensing draw from the alive/active masks, then the relay
load as integer packet counts pushed down the routing tree level by
level (:func:`repro.sim.soa.relay_accumulate`), priced per packet and
scaled by the uplink ETX.  There is deliberately no dirty-set variant
on the serial path: at the paper's N = 500, diffing the masks and
walking the changed routing paths costs more than the vector
arithmetic it would skip.  The pass leaves the relay-count state
(``_through_cnt``, ``_origins``, ``_alive_prev``, ``_relay_w``) that
the batched engine's incremental re-pricing (:mod:`repro.sim.batch`)
continues from.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, Optional

import numpy as np

from ..soa import relay_accumulate, relay_levels
from ..trace import EventKind
from .state import SimulationState

__all__ = ["EnergyAccounting"]

logger = logging.getLogger(__name__)


class EnergyAccounting:
    """Vectorized battery advance + draw-rate recomputation.

    Args:
        state: the shared simulation state.
        on_deaths: optional callback invoked with the number of sensors
            that depleted during an :meth:`advance` (the request gate
            forwards it to adaptive ERC policies).
    """

    def __init__(
        self,
        state: SimulationState,
        on_deaths: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.s = state
        self.on_deaths = on_deaths
        self._per_packet_relay_j = state.power.relay_power_w(1.0)
        self._notification_j = state.power.notification_energy_j()
        self._last_t = 0.0
        n = state.cfg.n_sensors
        self.rates = np.zeros(n, dtype=np.float64)
        self.active = np.zeros(n, dtype=bool)
        self._category_watts: Dict[str, float] = {}
        self.breakdown_j: Dict[str, float] = {
            "idle": 0.0,
            "sensing": 0.0,
            "relay": 0.0,
            "leakage": 0.0,
            "notifications": 0.0,
        }
        # -- relay-count state --------------------------------------------
        # Static routing views, then per-pass buffers that every
        # recompute refreshes in place: the batched engine binds the
        # latter as row views of its (B, n) stacks and re-prices
        # incrementally from them.
        self._connected = np.isfinite(state.routing.dist[:n])
        self._parent_arr = np.asarray(state.routing.parent, dtype=np.int64)
        self._base = int(state.routing.base)
        self._through_cnt = np.zeros(n + 1, dtype=np.int64)  # relayed+own packets
        self._origins = np.zeros(n, dtype=bool)
        self._alive_prev = np.zeros(n, dtype=bool)
        self._relay_w = np.zeros(n, dtype=np.float64)
        # Level-order schedule for the relay accumulation (computed once;
        # the routing tree is static) and the scratch array reused by
        # every battery advance.
        self._relay_levels = relay_levels(
            state.routing.parent, state.routing.dist, state.routing.base, n
        )
        self._drain_scratch = state.arrays.drain_scratch
        obs = state.instruments
        self._t_recompute = obs.timer("energy.recompute")
        self._t_advance = obs.timer("energy.advance")
        self._c_depletions = obs.counter("energy.depletions")
        self._sp = state.spans
        self.recompute()

    # ------------------------------------------------------------------

    def recompute(self) -> None:
        """Refresh the per-sensor power-draw vector (Watts).

        Also keeps the per-category totals (idle / sensing / relay /
        leakage, in Watts) used by :meth:`breakdown`.
        """
        with self._t_recompute, self._sp.span("energy.recompute"):
            self._recompute()

    def _recompute(self) -> None:
        s = self.s
        power = s.power
        alive = s.bank.alive_mask()
        active = s.activator.active_mask(alive)
        n = s.cfg.n_sensors
        # One stable rates buffer: the SoA arrays alias it, and the
        # steady-state pass then allocates no fresh vector.
        rates = self.rates
        rates.fill(0.0)
        rates[alive] = power.idle_power_w
        rates[active] += power.active_sensing_power_w
        # Relay load: push each active origin's packet count down the
        # routing tree, skipping dead relays' consumption (they can't
        # forward).  Counts stay integer, so the level-order
        # accumulation is exact whatever the add order.
        cnt = self._through_cnt
        cnt.fill(0)
        origins = active & self._connected
        cnt[:n][origins] = 1
        relay_accumulate(cnt, s.routing.parent, self._relay_levels)
        relay = (cnt[:n] - origins).astype(np.float64) * power.packet_rate_hz
        relay_w = np.where(alive, relay * self._per_packet_relay_j * s.uplink_etx, 0.0)
        rates += relay_w
        leak_total = 0.0
        if s.cfg.self_discharge_fraction_per_day > 0:
            # Charge-proportional leakage, frozen at the current level
            # until the next rate recomputation (piecewise-linear
            # approximation of the exponential decay).
            leak_per_s = s.cfg.self_discharge_fraction_per_day / 86400.0
            leak_w = np.where(alive, s.bank.levels_j * leak_per_s, 0.0)
            rates += leak_w
            leak_total = float(leak_w.sum())
        rates[~alive] = 0.0
        # These buffers may be bound as row views into a (B, n) stack
        # (see repro.sim.batch), so refresh them in place instead of
        # rebinding to the fresh arrays.
        self.active[...] = active
        self._origins[...] = origins
        self._alive_prev[...] = alive
        self._relay_w[...] = relay_w
        s.arrays.rates_w = self.rates
        s.arrays.active = self.active
        self._category_watts = {
            "idle": float(np.count_nonzero(alive)) * power.idle_power_w,
            "sensing": float(np.count_nonzero(active)) * power.active_sensing_power_w,
            "relay": float(relay_w.sum()),
            "leakage": leak_total,
        }

    def advance(self) -> None:
        """Drain batteries for the elapsed interval; handle depletions."""
        s = self.s
        dt = s.now - self._last_t
        if dt > 0:
            with self._t_advance, self._sp.span("energy.advance", dt=dt):
                self._advance(dt)

    def _advance(self, dt: float) -> None:
        s = self.s
        mon = s.monitors
        was_alive = s.bank.alive_mask()
        levels_before = s.bank.levels_j.copy() if mon.enabled else None
        s.bank.drain_rates(self.rates, dt, scratch=self._drain_scratch)
        if mon.enabled:
            mon.check_energy_conservation(
                levels_before, s.bank.levels_j, self.rates, dt, s.now
            )
            mon.check_battery_bounds(s.bank.levels_j, s.bank.capacity_j, s.now)
        for cat, watts in self._category_watts.items():
            self.breakdown_j[cat] += watts * dt
        self._last_t = s.now
        died = was_alive & ~s.bank.alive_mask()
        if np.any(died):
            n_died = int(np.count_nonzero(died))
            logger.debug("t=%.0fs: %d sensor(s) depleted", s.now, n_died)
            self._c_depletions.inc(n_died)
            if s.trace.enabled:
                for v in np.flatnonzero(died):
                    s.trace.emit(s.now, EventKind.SENSOR_DEPLETED, int(v))
            if self.on_deaths is not None:
                self.on_deaths(n_died)
            # Depleted sensors stop sensing and relaying.
            self.recompute()

    def apply_handoffs(self, handoffs: np.ndarray) -> None:
        """Charge rotation notifications: TX to the retiring sensor,
        RX to its successor."""
        if not len(handoffs):
            return
        s = self.s
        rx_j = s.power.radio.rx_energy_j(s.power.payload_bytes)
        s.bank.drain_energy(handoffs[:, 0], self._notification_j)
        s.bank.drain_energy(handoffs[:, 1], rx_j)
        self.breakdown_j["notifications"] += len(handoffs) * (
            self._notification_j + rx_j
        )

    def breakdown(self) -> Dict[str, float]:
        """Cumulative network consumption by category (Joules)."""
        return dict(self.breakdown_j)

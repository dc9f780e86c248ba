"""Energy accounting: analytic battery advance and rate bookkeeping.

The :class:`EnergyAccounting` component owns the piecewise-constant
power model of the whole sensor network:

* :meth:`recompute` refreshes the per-sensor draw vector (idle +
  active sensing + ETX-weighted relay load + optional leakage) from the
  current activation and routing state;
* :meth:`advance` drains every battery analytically for the elapsed
  interval and reports depletions (log events + a death callback for
  the ERC policy);
* :meth:`apply_handoffs` charges rotation notification packets (and
  reports the sensors a notification empties, like drain deaths);
* :meth:`breakdown` exposes the cumulative per-category Joules.

Between events nothing integrates numerically — the engine only fires
bookkeeping ticks, so a 120-day horizon costs a few hundred events.

The alive mask
--------------

``energy.alive`` (aliased as ``state.arrays.alive``) is the one alive
mask of the tick; rotation, the active mask and the metrics read it
instead of re-deriving ``levels > 0``, and read its bytes, their memo
key, as ``state.arrays.alive_key``: the one ``tobytes`` this component
takes whenever it rewrites the mask.  This component keeps it
current where levels change: after the drain in :meth:`advance` (a
drain only lowers levels, so its deaths are the alive sensors now at
zero, and the death recompute drops them) and at the top of every
:meth:`recompute`, which every other level write precedes (rotation
hand-offs, recharges, relocation, replay restore).  With monitors on,
every :meth:`advance` checks ``alive == (levels > 0)``.

The alive sensors are counted once per alive set, when its pricing
tables are built.  A drain only lowers levels and leaves dead sensors
at zero, so its deaths are exactly the drop in ``count(levels > 0)``
from that count: :meth:`advance` builds the per-sensor death mask only
when the count moved.  The same count decides the drain's clamp: with
no drop, no level went below zero, so the clamp at empty is applied
(before the monitors check the levels) only when the count drops, and
the clamp at capacity never binds, since non-negative rates never raise
a level and levels start at or below capacity.

Rate recomputation
------------------

``recompute`` runs on every rotation slot, after every depletion and
after every recharge.  A full pass prices idle + sensing draw from the
alive/active masks, then the relay load as integer packet counts,
priced per packet and scaled by the uplink ETX.  A sensor relays every
packet originating in its routing subtree, so its count is the number
of origins it is an ancestor of.  The deployment memo
(:func:`~repro.sim.components.state.static_network`) keeps every
sensor's strict ancestors as one read-only table
(:func:`repro.network.routing.ancestor_table`, this world's
:func:`relay_index`), and the counts are one gather of the origins'
rows and one ``bincount`` (:func:`repro.sim.soa.relay_counts`): with
one origin per cluster, that is ~15 rows at the paper's scale, not a
pass over all ``n`` sensors.  :meth:`EnergyAccounting.price` turns the
counts into Watts.

Everything in the pricing except the active mask and the counts is
fixed for one alive set, so it comes from tables: the relay Watts per
packet count (``(c * rate) * per_packet``, built once per run), and,
per alive set, the uplink ETX times the alive mask and each sensor's
idle and duty (sensing + idle) draw times the alive mask.  A pricing is
then a ``take`` of the counts, one multiply, two ``copyto`` and one add,
with the same products in the same order as the full expression.  The
tables are rebuilt when the alive set changes and whenever the memo is
forced (``_priced_key = None``), so a patched ETX is priced.

Rates are validated where they are made.  A rate is a non-negative base
draw plus a per-count Watts times an ETX (plus leakage, which is
non-negative for non-negative levels), so the pricing checks its
factors: the power constants when the component is built and the ETX
table once per alive set, raising :class:`ValueError` on a negative
one; non-negative factors make every rate non-negative.
:meth:`advance` then drains through
:meth:`~repro.energy.battery.BatteryBank.drain_unclamped`, the bank's
one drain arithmetic without the per-call checks.

The re-pricing memo
-------------------

With leakage off, the rates and the per-category Watts are a pure
function of the ``(alive, active)`` masks: connectivity, the uplink
ETX, the ancestor table and the power model are all fixed for the run.
So a recompute whose masks equal (byte for byte) the masks that
produced the current rates buffer skips the counts, the pricing and the
sums, and leaves bit-identical rates in place.  In the Fig. 6 grid that
is about a quarter of all recomputes, every one of them a recharge of a
node that was still alive.  The check sits inside :meth:`recompute`,
so the call still happens (and is counted) wherever it did before.
With leakage on, the rates also depend on the levels, so every
recompute re-prices.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, Optional

import numpy as np

from ...obs.log import EventKind
from ..soa import relay_counts
from .state import SimulationState

__all__ = ["EnergyAccounting", "relay_index"]

logger = logging.getLogger(__name__)


def relay_index(state: SimulationState) -> np.ndarray:
    """This world's relay index: the deployment's shared, read-only
    ancestor table."""
    return state.network.ancestors


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
        power = state.power
        # NodePowerModel is frozen: price every pass from cached scalars.
        self._idle_w = power.idle_power_w
        self._sensing_w = power.active_sensing_power_w
        self._packet_rate_hz = power.packet_rate_hz
        self._per_packet_relay_j = power.relay_power_w(1.0)
        self._notification_j = power.notification_energy_j()
        self._rx_j = power.radio.rx_energy_j(power.payload_bytes)
        # One (holder, successor) hand-off row: TX to the retiring
        # sensor, RX to its successor.
        self._handoff_j = np.array([self._notification_j, self._rx_j])
        self._pair_j = self._notification_j + self._rx_j
        self._leak_per_s = state.cfg.self_discharge_fraction_per_day / 86400.0
        self._leaky = state.cfg.self_discharge_fraction_per_day > 0
        self._last_t = 0.0
        n = state.cfg.n_sensors
        self.rates = np.zeros(n, dtype=np.float64)
        self.active = np.zeros(n, dtype=bool)
        self.alive = state.arrays.alive
        self._category_watts: Dict[str, float] = {}
        self.breakdown_j: Dict[str, float] = {
            "idle": 0.0,
            "sensing": 0.0,
            "relay": 0.0,
            "leakage": 0.0,
            "notifications": 0.0,
        }
        # The routing tree's ancestor rows for the relay counts (the
        # topology never changes during a run).
        self._ancestors = relay_index(state)
        self._drain_scratch = state.arrays.drain_scratch
        self._died = np.empty(n, dtype=bool)
        # Relay Watts per relayed packet count c <= n: the first two
        # factors of the pricing, (c * rate) * per-packet Joules, once.
        self._count_w = np.arange(n + 1, dtype=np.float64)
        self._count_w *= self._packet_rate_hz
        self._count_w *= self._per_packet_relay_j
        # Every rate is a base draw plus a per-count product times an
        # ETX (plus leakage, >= 0 from levels >= 0), so non-negative
        # tables make non-negative rates: check the scalar factors here
        # and the ETX table per alive set (_price_alive_set).
        if (
            self._idle_w < 0.0
            or self._sensing_w + self._idle_w < 0.0
            or np.minimum.reduce(self._count_w) < 0.0
        ):
            raise ValueError("power draws must be non-negative")
        # The per-alive-set pricing tables, the alive count (see
        # advance) and the alive mask bytes they were built for; the
        # first recompute builds them.
        self._etx_alive = self._idle_alive = self._duty_alive = None
        self._n_alive = 0
        self._alive_key: Optional[bytes] = None
        # The mask bytes the rates buffer was priced from; None forces
        # the next recompute to re-price and rebuild the tables.
        self._priced_key: Optional[bytes] = None
        state.arrays.rates_w = self.rates
        state.arrays.active = self.active
        self.recompute()

    # ------------------------------------------------------------------

    def recompute(self) -> None:
        """Refresh the per-sensor power-draw vector (Watts).

        Also keeps the per-category totals (idle / sensing / relay /
        leakage, in Watts) used by :meth:`breakdown`.
        """
        log = self.s.log
        if log.enabled:
            with log.phase("energy.recompute"):
                self._recompute()
        else:
            self._recompute()

    def _recompute(self) -> None:
        s = self.s
        # Every level write outside advance() (hand-offs, recharges,
        # relocation, replay restore) is followed by a recompute, so
        # re-deriving the alive mask here keeps it current.
        alive = np.greater(s.bank.levels_j, 0.0, out=self.alive)
        alive_key = s.arrays.alive_key = alive.tobytes()
        active = s.activator.active_mask(alive)
        if self._leaky:
            key = alive_key  # the rates follow the levels: no memo
        else:
            key = (alive_key, active.tobytes())
            if key == self._priced_key:
                return  # same masks: the buffers already hold this pricing
        if self._priced_key is None or alive_key != self._alive_key:
            self._price_alive_set(alive, alive_key)
        # Relay load: every active sensor with a route to the base
        # originates packets, and each sensor relays those of its strict
        # subtree (dead relays keep forwarding in the static tree but
        # draw nothing).  An unrouted sensor's ancestor row is padding
        # only, so the active mask is the origin mask.
        relay_w = self.price(active, relay_counts(active, self._ancestors))
        leak_total = 0.0
        if self._leaky:
            # Charge-proportional leakage, frozen at the current level
            # until the next rate recomputation (piecewise-linear
            # approximation of the exponential decay).
            leak_w = np.multiply(s.bank.levels_j, self._leak_per_s)
            leak_w *= alive
            self.rates += leak_w
            leak_total = float(leak_w.sum())
        self.active[...] = active
        self._category_watts = {
            "idle": float(self._n_alive) * self._idle_w,
            "sensing": float(np.count_nonzero(active)) * self._sensing_w,
            "relay": float(np.add.reduce(relay_w)),
            "leakage": leak_total,
        }
        self._priced_key = key

    def _price_alive_set(self, alive: np.ndarray, alive_key: bytes) -> None:
        """Build the pricing tables of one alive set (and its count).

        Each table folds the final ``* alive`` of the pricing into a
        factor: for finite ``x``, ``(x * etx) * a == x * (etx * a)`` for
        ``a`` in ``{0, 1}`` (signed zeros included), and a depleted
        sensor's base draw ``(base + relay) * 0`` is the ``+0.0`` that
        ``base * 0 + relay * 0`` gives.

        Rates are validated here: with the scalar factors checked at
        construction, a non-negative ETX table makes every rate priced
        from these tables non-negative, so a re-pricing needs no check
        of its own.  Rebuilt whenever the alive set changes or the memo
        is forced (``_priced_key = None``).
        """
        self._etx_alive = np.multiply(self.s.uplink_etx, alive)
        if self._etx_alive.size and np.minimum.reduce(self._etx_alive) < 0.0:
            raise ValueError("power draws must be non-negative")
        self._idle_alive = np.multiply(alive, self._idle_w)
        self._duty_alive = np.multiply(alive, self._sensing_w + self._idle_w)
        self._n_alive = int(np.count_nonzero(alive))
        self._alive_key = alive_key

    def price(self, active, relay) -> np.ndarray:
        """Per-sensor draw in Watts into :attr:`rates`; returns the relay
        Watts.

        ``relay`` holds each sensor's relayed packet count
        (:func:`~repro.sim.soa.relay_counts`).  The draw is idle, plus
        sensing when active, plus the relayed packets priced per packet
        and scaled by the uplink ETX; depleted sensors draw nothing.
        The alive mask enters through the tables of the current alive
        set (:meth:`_price_alive_set`).
        """
        # The same products as ``((relay * rate) * per_packet) * etx *
        # alive``, left to right: the first two come from the per-count
        # table (counts are far below 2**53, so exact as float64).
        relay_w = self._count_w.take(relay)
        relay_w *= self._etx_alive
        # In place: the SoA arrays alias the rates buffer.  An active
        # sensor's base draw is sensing + idle, which IEEE addition
        # makes the same bits as idle + sensing.
        rates = self.rates
        np.copyto(rates, self._idle_alive)
        np.copyto(rates, self._duty_alive, where=active)
        rates += relay_w
        return relay_w

    def advance(self) -> None:
        """Drain batteries for the elapsed interval; handle depletions."""
        s = self.s
        now = s.sim.now
        if s.monitors.enabled:
            s.monitors.check_alive_mask(self.alive, s.bank.levels_j, now)
        dt = now - self._last_t
        if dt > 0:
            if s.log.enabled:
                with s.log.phase("energy.advance", dt=dt):
                    self._advance(dt, now)
            else:
                self._advance(dt, now)

    def _advance(self, dt: float, now: float) -> None:
        s = self.s
        mon = s.monitors
        levels = s.bank.levels_j
        levels_before = levels.copy() if mon.enabled else None
        # The rates were validated when they were priced (_recompute).
        s.bank.drain_unclamped(self.rates, dt, self._drain_scratch)
        # The drain's clamps, only where they can bind.  Non-negative
        # rates never raise a level, and levels start at or below
        # capacity, so the upper clamp never changes one.  A drain keeps
        # dead sensors at zero, so a level went below zero only if the
        # alive count dropped from the last pricing's.
        alive_now = np.greater(levels, 0.0, out=self._died)
        deaths = np.count_nonzero(alive_now) != self._n_alive
        if deaths:
            np.maximum(levels, 0.0, out=levels)
        if mon.enabled:
            mon.check_energy_conservation(levels_before, levels, self.rates, dt, now)
            mon.check_battery_bounds(levels, s.bank.capacity_j, now)
        breakdown = self.breakdown_j
        for cat, watts in self._category_watts.items():
            breakdown[cat] += watts * dt
        self._last_t = now
        if not deaths:
            return
        # The deaths are the alive sensors now at zero.
        died = np.less_equal(levels, 0.0, out=self._died)
        np.logical_and(died, self.alive, out=died)
        victims = np.flatnonzero(died)
        if len(victims):
            self._report_deaths(victims)
            # Depleted sensors stop sensing and relaying; the recompute
            # also drops them from the alive mask.
            self.recompute()

    def _report_deaths(self, victims: np.ndarray) -> None:
        """Log the depletion of ``victims`` (ascending sensor ids) and
        tell the death callback how many there were."""
        s = self.s
        n_died = len(victims)
        logger.debug("t=%.0fs: %d sensor(s) depleted", s.now, n_died)
        if s.log.enabled:
            for v in victims:
                s.log.emit(s.now, EventKind.SENSOR_DEPLETED, int(v))
        if self.on_deaths is not None:
            self.on_deaths(n_died)

    def apply_handoffs(self, handoffs: np.ndarray) -> None:
        """Charge rotation notifications: TX to the retiring sensor,
        RX to its successor.

        Within one rotation the holders and the successors are distinct
        sensors (each belongs to one cluster), so one gather, clamp and
        scatter of the ``(k, 2)`` pairs is elementwise the same as
        draining each column in turn.  A sensor a notification empties
        is reported like a drain death; the recompute that follows every
        rotation drops it from the alive mask.
        """
        if not len(handoffs):
            return
        levels = self.s.bank.levels_j
        after = levels[handoffs]
        after -= self._handoff_j
        np.maximum(after, 0.0, out=after)
        levels[handoffs] = after
        self.breakdown_j["notifications"] += len(handoffs) * self._pair_j
        if np.count_nonzero(after) < after.size:  # levels are >= 0: some hit zero
            emptied = np.zeros(len(levels), dtype=bool)
            emptied[handoffs[after <= 0.0]] = True
            emptied &= self.alive
            if emptied.any():
                self._report_deaths(np.flatnonzero(emptied))

    def breakdown(self) -> Dict[str, float]:
        """Cumulative network consumption by category (Joules)."""
        return dict(self.breakdown_j)

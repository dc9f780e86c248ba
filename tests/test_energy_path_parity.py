"""The lean event path against its earlier forms, bit for bit.

:class:`~repro.sim.components.energy.EnergyAccounting` prices from
per-alive-set tables over strict-subtree relay counts, clamps a drain
only when a sensor died, charges hand-offs with one gather/clamp/scatter
and the engine's heap holds plain tuples.  The
forms they replaced live in ``tests/oracles.py``; these tests hold the
library to the same bits and the same firing order.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import DataclassSimulator, drain_handoffs, drain_rates, reference_pricing
from repro.energy.battery import BatteryBank
from repro.energy.consumption import NodePowerModel, RadioModel
from repro.obs.monitors import MonitorSet
from repro.sim.components import ClusterManager, EnergyAccounting, SimulationState
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.sim.soa import relay_counts


def make_energy(
    seed, n_sensors, comm_range_m, n_targets, leak, monitors=None, on_deaths=None, **overrides
):
    cfg = SimulationConfig(
        n_sensors=n_sensors,
        n_targets=n_targets,
        n_rvs=1,
        side_length_m=50.0,
        sensing_range_m=12.0,
        comm_range_m=comm_range_m,
        battery_capacity_j=500.0,
        initial_charge_range=(0.2, 0.9),
        self_discharge_fraction_per_day=leak,
        seed=seed,
        **overrides,
    )
    state = SimulationState.from_config(cfg, monitors=monitors)
    ClusterManager(state)
    return EnergyAccounting(state, on_deaths=on_deaths)


class _MaskActivator:
    """An activator stand-in that answers with a fixed active mask (it
    may list dead sensors, which must still draw nothing)."""

    rotates = False

    def __init__(self, mask):
        self.mask = mask

    def active_mask(self, alive):
        return self.mask.copy()


class TestPricingParity:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_sensors=st.integers(1, 40),
        # 4 m leaves most sensors without a route, 30 m routes nearly all.
        comm_range_m=st.sampled_from([4.0, 10.0, 30.0]),
        n_targets=st.integers(0, 3),  # 0: a zero-cluster epoch
        leak=st.sampled_from([0.0, 0.05]),
        dead_fraction=st.sampled_from([0.0, 0.3, 0.8]),
        random_active=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_rates_and_watts_identical(
        self, seed, n_sensors, comm_range_m, n_targets, leak, dead_fraction, random_active
    ):
        energy = make_energy(seed, n_sensors, comm_range_m, n_targets, leak)
        s = energy.s
        rng = np.random.default_rng(seed)
        # Dead relays: depleted sensors stay in the static routing tree.
        s.bank.levels_j[rng.random(n_sensors) < dead_fraction] = 0.0
        if random_active:
            s.activator = _MaskActivator(rng.random(n_sensors) < 0.5)
        energy.recompute()
        rates, watts = reference_pricing(energy, leaky=leak > 0)
        assert energy.rates.tobytes() == rates.tobytes()
        assert energy._category_watts == watts

    @given(
        seed=st.integers(0, 2**31 - 1),
        n_sensors=st.integers(2, 60),
        # 10 m: deep routing trees, so sensors relay many packets.
        comm_range_m=st.sampled_from([4.0, 10.0, 10.0, 30.0]),
        n_targets=st.integers(0, 3),
        leak=st.sampled_from([0.0, 0.05]),
        # 0.25 (the default) is a power of two; the others round, so the
        # per-count table must multiply in the pricing's order.
        packet_rate_hz=st.sampled_from([0.25, 0.37, 2.9]),
        steps=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.2, 0.6]),  # share of sensors emptied
                st.sampled_from([0.0, 0.5]),  # share of dead sensors refilled
                st.booleans(),  # a random active mask instead of the activator's
            ),
            min_size=2,
            max_size=6,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_alive_set_changes_rebuild_the_tables(
        self, seed, n_sensors, comm_range_m, n_targets, leak, packet_rate_hz, steps
    ):
        """Re-pricings whose alive set changes in between: every one
        prices from tables of its own alive set."""
        energy = make_energy(
            seed, n_sensors, comm_range_m, n_targets, leak,
            power_model=NodePowerModel(packet_rate_hz=packet_rate_hz),
        )
        s = energy.s
        activator = s.activator
        rng = np.random.default_rng(seed)
        for emptied, refilled, random_active in steps:
            levels = s.bank.levels_j
            levels[rng.random(n_sensors) < emptied] = 0.0
            dead = levels <= 0.0
            levels[dead & (rng.random(n_sensors) < refilled)] = s.bank.capacity_j
            s.activator = (
                _MaskActivator(rng.random(n_sensors) < 0.7) if random_active else activator
            )
            energy.recompute()
            rates, watts = reference_pricing(energy, leaky=leak > 0)
            assert energy.rates.tobytes() == rates.tobytes()
            assert energy._category_watts == watts
            alive = levels > 0.0
            assert energy._alive_key == alive.tobytes()
            assert energy._n_alive == np.count_nonzero(alive)

    @pytest.mark.parametrize("seed", [0, 2, 3, 6, 7])  # fields whose base is reachable
    def test_per_count_table_rounds_like_the_pricing(self, seed):
        """Deep trees relay many packets per sensor, and at a packet
        rate that is not a power of two ``(c * rate) * per_packet``
        rounds differently from ``c * (rate * per_packet)`` for some
        counts: the table must keep the pricing's order."""
        energy = make_energy(
            seed, 40, 10.0, 3, 0.0, power_model=NodePowerModel(packet_rate_hz=0.37)
        )
        energy.s.activator = _MaskActivator(np.random.default_rng(seed).random(40) < 0.7)
        energy.recompute()
        assert relay_counts(energy.active, energy._ancestors).max() >= 3
        rates, watts = reference_pricing(energy, leaky=False)
        assert energy.rates.tobytes() == rates.tobytes()
        assert energy._category_watts == watts

    def test_negative_rate_raises_from_recompute(self):
        energy = make_energy(3, 40, 10.0, 3, 0.0, activation="full_time")
        s = energy.s
        # Some alive sensor relays, so its relay Watts turn negative.
        assert relay_counts(energy.active, energy._ancestors)[energy.alive].any()
        s.uplink_etx = np.full_like(s.uplink_etx, -1e9)  # relays now "generate" energy
        energy._priced_key = None  # the masks are unchanged: force a re-pricing
        with pytest.raises(ValueError, match="non-negative"):
            energy.recompute()


class TestHandoffParity:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_sensors=st.integers(2, 40),
        pairs=st.integers(1, 20),
        low_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_scatter_equals_two_drains(self, seed, n_sensors, pairs, low_fraction):
        # Distinct TX and RX costs, so a holder charged the successor's
        # cost shows (the default radio draws the same current for both).
        radio = RadioModel(tx_current_a=27e-3, rx_current_a=19e-3)
        energy = make_energy(
            seed, n_sensors, 30.0, 2, 0.0, power_model=NodePowerModel(radio=radio)
        )
        assert energy._notification_j != energy._rx_j
        s = energy.s
        rng = np.random.default_rng(seed)
        k = min(pairs, n_sensors // 2)
        # Disjoint (holder, successor) pairs, as one rotation hands off.
        handoffs = rng.permutation(n_sensors)[: 2 * k].reshape(k, 2)
        # Some levels below a notification's cost, so the clamp binds.
        low = rng.random(n_sensors) < low_fraction
        s.bank.levels_j[low] = rng.random(np.count_nonzero(low)) * energy._notification_j
        ref = BatteryBank(n_sensors, capacity_j=s.bank.capacity_j)
        ref.levels_j = s.bank.levels_j.copy()
        drain_handoffs(ref, handoffs, energy._notification_j, energy._rx_j)
        energy.apply_handoffs(handoffs)
        assert s.bank.levels_j.tobytes() == ref.levels_j.tobytes()


class TestDrainParity:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_sensors=st.integers(2, 40),
        leak=st.sampled_from([0.0, 0.05]),
        low_fraction=st.sampled_from([0.0, 0.3, 1.0]),
        dts=st.lists(st.floats(1.0, 5000.0), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_lazy_clamp_equals_two_clamp_drain(self, seed, n_sensors, leak, low_fraction, dts):
        """Drain sequences with deaths part-way: ``advance`` (clamping
        only when the alive count drops) leaves the levels, the alive
        mask, the victims and the death counts of
        ``oracles.drain_rates`` (both clamps, every step), with
        strict monitors checking every step."""
        deaths = []
        energy = make_energy(
            seed, n_sensors, 30.0, 2, leak,
            monitors=MonitorSet(strict=True), on_deaths=deaths.append,
        )
        s = energy.s
        rng = np.random.default_rng(seed)
        # Some sensors hold only a few seconds' to a few hours' worth.
        low = rng.random(n_sensors) < low_fraction
        s.bank.levels_j[low] = energy.rates[low] * rng.uniform(0.0, 2.0 * max(dts), low.sum())
        energy.recompute()
        want_counts = []
        for dt in dts:
            s.sim.now += dt
            ref = BatteryBank(n_sensors, capacity_j=s.bank.capacity_j)
            ref.levels_j = s.bank.levels_j.copy()
            drain_rates(ref, energy.rates.copy(), s.now - energy._last_t)
            want_victims = np.flatnonzero((ref.levels_j <= 0.0) & energy.alive)
            with mock.patch.object(
                energy, "_report_deaths", wraps=energy._report_deaths
            ) as report:
                energy.advance()
            got_victims = report.call_args[0][0] if report.called else np.empty(0, np.intp)
            assert s.bank.levels_j.tobytes() == ref.levels_j.tobytes()
            assert np.array_equal(energy.alive, ref.levels_j > 0.0)
            assert np.array_equal(got_victims, want_victims)
            if len(want_victims):
                want_counts.append(len(want_victims))
        assert deaths == want_counts


class TestEventQueueParity:
    @given(
        events=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 2.5, 3.0, 7.0]),  # few times: many ties
                st.integers(0, 3),
                st.sampled_from([None, 0.0, 0.5, 2.0]),  # reschedule delay
            ),
            max_size=40,
        ),
        horizon=st.sampled_from([2.5, 5.0, 100.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_firing_order_identical(self, events, horizon):
        def run(sim):
            fired = []

            def fire(i, delay, prio):
                fired.append(i)
                if delay is not None and i < 1000:
                    sim.schedule(
                        sim.now + delay,
                        lambda: fire(i + 1000, None, prio),
                        priority=prio,
                    )

            for i, (t, prio, delay) in enumerate(events):
                sim.schedule(t, lambda i=i, d=delay, p=prio: fire(i, d, p), priority=prio)
            sim.run_until(horizon)
            return fired, sim.now

        assert run(Simulator()) == run(DataclassSimulator())

"""Unit tests for repro.energy.battery.

The checked, clamped drain and the lump hand-off drain the simulator's
energy path is compared against live in ``oracles.py``
(:func:`oracles.drain_rates`, :func:`oracles.drain_handoffs`); their
contract is pinned here too.
"""

import numpy as np
import pytest

from oracles import drain_handoffs, drain_rates
from repro.energy.battery import Battery, BatteryBank


class TestBattery:
    def test_starts_full_by_default(self):
        b = Battery(100.0)
        assert b.level_j == b.capacity_j == 100.0

    def test_drain_clamps_at_empty(self):
        b = Battery(100.0)
        drawn = b.drain(150.0)
        assert drawn == 100.0
        assert b.level_j == 0.0

    def test_refill(self):
        b = Battery(100.0, level_j=30.0)
        assert b.refill() == pytest.approx(70.0)
        assert b.level_j == 100.0

    def test_negative_amounts_rejected(self):
        b = Battery(10.0)
        with pytest.raises(ValueError):
            b.drain(-1.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Battery(0.0)
        with pytest.raises(ValueError):
            Battery(10.0, level_j=11.0)
        with pytest.raises(ValueError):
            Battery(10.0, level_j=-1.0)


class TestBatteryBank:
    def test_shapes_and_defaults(self):
        bank = BatteryBank(5, capacity_j=100.0)
        assert bank.levels_j.shape == (5,)
        assert np.all(bank.levels_j == 100.0)
        assert bank.threshold_j == 50.0

    def test_demands(self):
        bank = BatteryBank(3, capacity_j=100.0, initial_fraction=0.25)
        assert np.allclose(bank.capacity_j - bank.levels_j, 75.0)

    def test_masks(self):
        bank = BatteryBank(3, capacity_j=100.0)
        bank.levels_j[:] = [0.0, 49.0, 80.0]
        assert bank.alive_mask().tolist() == [False, True, True]
        assert (bank.levels_j < bank.threshold_j).tolist() == [True, True, False]

    def test_drain_rates_vectorized(self):
        bank = BatteryBank(3, capacity_j=100.0)
        bank.drain_unclamped(np.array([1.0, 2.0, 0.0]), 10.0, np.empty(3))
        assert np.allclose(bank.levels_j, [90.0, 80.0, 100.0])

    def test_drain_rates_clamps(self):
        bank = BatteryBank(2, capacity_j=10.0)
        drain_rates(bank, np.array([100.0, 0.1]), 1.0)
        assert bank.levels_j[0] == 0.0
        assert bank.levels_j[1] == pytest.approx(9.9)

    def test_drain_rates_shape_mismatch(self):
        bank = BatteryBank(2, capacity_j=10.0)
        with pytest.raises(ValueError):
            drain_rates(bank, np.zeros(3), 1.0)

    def test_drain_rates_negative_rate_rejected(self):
        bank = BatteryBank(2, capacity_j=10.0)
        with pytest.raises(ValueError):
            drain_rates(bank, np.array([-1.0, 0.0]), 1.0)

    def test_drain_rates_negative_dt_rejected(self):
        bank = BatteryBank(2, capacity_j=10.0)
        with pytest.raises(ValueError):
            drain_rates(bank, np.zeros(2), -1.0)

    def test_drain_energy_lump(self):
        bank = BatteryBank(3, capacity_j=10.0)
        drain_handoffs(bank, np.array([[0, 2]]), 4.0, 4.0)
        assert np.allclose(bank.levels_j, [6.0, 10.0, 6.0])

    def test_drain_energy_clamps(self):
        bank = BatteryBank(1, capacity_j=10.0)
        bank.levels_j[0] = 1.0
        drain_handoffs(bank, np.array([[0, 0]]), 5.0, 0.0)
        assert bank.levels_j[0] == 0.0

    def test_charge_to_full_returns_delivered(self):
        bank = BatteryBank(3, capacity_j=10.0)
        bank.levels_j[:] = [2.0, 10.0, 7.0]
        delivered = bank.charge_to_full([0, 2])
        assert delivered == pytest.approx(11.0)
        assert np.allclose(bank.levels_j, [10.0, 10.0, 10.0])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BatteryBank(-1)
        with pytest.raises(ValueError):
            BatteryBank(1, capacity_j=0.0)
        with pytest.raises(ValueError):
            BatteryBank(1, threshold_fraction=1.5)
        with pytest.raises(ValueError):
            BatteryBank(1, initial_fraction=-0.1)

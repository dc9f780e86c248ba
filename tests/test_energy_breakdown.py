"""Tests for the per-category network energy breakdown."""

from repro.sim.config import DAY_S, SimulationConfig
from repro.sim.world import World


def make(**overrides):
    defaults = dict(
        n_sensors=40,
        n_targets=3,
        n_rvs=1,
        side_length_m=60.0,
        sim_time_s=0.5 * DAY_S,
        battery_capacity_j=400.0,
        initial_charge_range=(0.6, 0.9),
        dispatch_period_s=1800.0,
        seed=12,
    )
    defaults.update(overrides)
    return World(SimulationConfig(**defaults))


class TestEnergyBreakdown:
    def test_all_categories_present(self):
        w = make()
        w.run()
        bd = w.energy_breakdown()
        assert set(bd) == {"idle", "sensing", "relay", "leakage", "notifications"}
        assert all(v >= 0 for v in bd.values())
        assert bd["notifications"] > 0  # round robin hands off constantly

    def test_sensing_dominates_idle_per_node(self):
        """With a PIR at 10 mA active vs ~0.5 mW idle, the per-node
        sensing draw dwarfs idle — the breakdown must reflect scale."""
        w = make()
        w.run()
        bd = w.energy_breakdown()
        # ~3 active sensors at 30 mW vs 40 idle at ~0.5 mW.
        assert bd["sensing"] > bd["idle"]

    def test_leakage_zero_by_default(self):
        w = make()
        w.run()
        assert w.energy_breakdown()["leakage"] == 0.0

    def test_leakage_accumulates_when_enabled(self):
        w = make(self_discharge_fraction_per_day=0.05)
        w.run()
        assert w.energy_breakdown()["leakage"] > 0.0

    def test_breakdown_bounds_total_drain(self):
        """Total categorized energy >= energy actually withdrawn from
        batteries net of recharges (clamping at empty only loses energy
        from the categories' upper bound)."""
        w = make()
        initial = w.state.bank.levels_j.sum()
        s = w.run()
        final = w.state.bank.levels_j.sum()
        consumed = initial - final + s.delivered_energy_j
        total_categorized = sum(w.energy_breakdown().values())
        assert total_categorized >= consumed - 1e-6

    def test_full_time_sensing_share_larger(self):
        rr = make(seed=3)
        rr.run()
        ft = make(seed=3, activation="full_time")
        ft.run()
        assert ft.energy_breakdown()["sensing"] > rr.energy_breakdown()["sensing"]

"""Golden-value regression tests.

A fixed configuration and seed must keep producing the same summary —
any drift means the simulation semantics changed, which must be a
conscious decision (update the goldens in the same commit and say why).

Golden values were recorded with repro 1.0.0.
"""

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.runner import run_simulation

GOLDEN_CONFIG = dict(
    n_sensors=50,
    n_targets=4,
    n_rvs=2,
    side_length_m=80.0,
    comm_range_m=12.0,
    sensing_range_m=10.0,
    sim_time_s=86400.0,
    target_period_s=10800.0,
    battery_capacity_j=500.0,
    initial_charge_range=(0.55, 0.9),
    dispatch_period_s=3600.0,
    scheduler="combined",
    erp=0.5,
    seed=2024,
)

# Full fixed-seed summaries for the four paper schedulers, recorded
# bit-identically against the pre-component-split engine.  Equality is
# exact (==, not approx): the component refactor must not perturb a
# single ulp of the trajectory.
GOLDEN_SUMMARIES = {
    "greedy": {
        "sim_time_s": 86400.0,
        "traveling_distance_m": 1607.669214713484,
        "traveling_energy_j": 9002.94760239551,
        "delivered_energy_j": 11930.710443047985,
        "objective_j": 2927.7628406524746,
        "avg_coverage_ratio": 1.0,
        "missing_rate": 0.0,
        "avg_nonfunctional_fraction": 0.0,
        "avg_operational_sensors": 50.0,
        "recharging_cost_m_per_sensor": 32.15338429426968,
        "n_recharges": 42.0,
        "n_sorties": 31.0,
        "n_requests": 43.0,
        "mean_request_latency_s": 1501.6844562618207,
        "events_fired": 260.0,
    },
    "insertion": {
        "sim_time_s": 86400.0,
        "traveling_distance_m": 1162.9178148301464,
        "traveling_energy_j": 6512.339763048821,
        "delivered_energy_j": 11997.32380121371,
        "objective_j": 5484.984038164889,
        "avg_coverage_ratio": 1.0,
        "missing_rate": 0.0,
        "avg_nonfunctional_fraction": 0.0,
        "avg_operational_sensors": 50.0,
        "recharging_cost_m_per_sensor": 23.25835629660293,
        "n_recharges": 42.0,
        "n_sorties": 19.0,
        "n_requests": 43.0,
        "mean_request_latency_s": 1681.0469371044323,
        "events_fired": 260.0,
    },
    "partition": {
        "sim_time_s": 86400.0,
        "traveling_distance_m": 1215.4774470211055,
        "traveling_energy_j": 6806.673703318191,
        "delivered_energy_j": 12082.15923761838,
        "objective_j": 5275.485534300189,
        "avg_coverage_ratio": 1.0,
        "missing_rate": 0.0,
        "avg_nonfunctional_fraction": 0.0,
        "avg_operational_sensors": 49.999999999999986,
        "recharging_cost_m_per_sensor": 24.30954894042212,
        "n_recharges": 42.0,
        "n_sorties": 30.0,
        "n_requests": 44.0,
        "mean_request_latency_s": 1836.227306763322,
        "events_fired": 260.0,
    },
    # The combined scheme with a 2-RV fleet reduces to sequential
    # insertion here, so its trajectory coincides with "insertion".
    "combined": {
        "sim_time_s": 86400.0,
        "traveling_distance_m": 1162.9178148301464,
        "traveling_energy_j": 6512.339763048821,
        "delivered_energy_j": 11997.32380121371,
        "objective_j": 5484.984038164889,
        "avg_coverage_ratio": 1.0,
        "missing_rate": 0.0,
        "avg_nonfunctional_fraction": 0.0,
        "avg_operational_sensors": 50.0,
        "recharging_cost_m_per_sensor": 23.25835629660293,
        "n_recharges": 42.0,
        "n_sorties": 19.0,
        "n_requests": 43.0,
        "mean_request_latency_s": 1681.0469371044323,
        "events_fired": 260.0,
    },
}


@pytest.fixture(scope="module")
def summary():
    return run_simulation(SimulationConfig(**GOLDEN_CONFIG))


class TestGolden:
    def test_structure_is_stable(self, summary):
        d = summary.as_dict()
        assert len(d) == 15

    def test_run_reproduces_itself(self, summary):
        again = run_simulation(SimulationConfig(**GOLDEN_CONFIG))
        assert again.as_dict() == summary.as_dict()

    def test_counts_plausible_and_pinned(self, summary):
        """Count-valued metrics are pinned exactly (integers don't
        suffer float noise); update deliberately if semantics change."""
        assert summary.n_requests > 0
        assert summary.n_recharges > 0
        assert summary.n_recharges <= summary.n_requests
        # Invariants that should never drift:
        assert summary.sim_time_s == 86400.0
        assert summary.objective_j == pytest.approx(
            summary.delivered_energy_j - summary.traveling_energy_j
        )
        assert summary.traveling_energy_j == pytest.approx(
            summary.traveling_distance_m * 5.6
        )

    def test_scheduler_change_changes_outcome(self, summary):
        other = run_simulation(
            SimulationConfig(**{**GOLDEN_CONFIG, "scheduler": "greedy"})
        )
        assert other.as_dict() != summary.as_dict()


class TestGoldenPerScheduler:
    """Exact pinned summaries for every paper scheduler."""

    @pytest.mark.parametrize("scheduler", sorted(GOLDEN_SUMMARIES))
    def test_summary_bit_identical(self, scheduler):
        cfg = SimulationConfig(**{**GOLDEN_CONFIG, "scheduler": scheduler})
        got = run_simulation(cfg).as_dict()
        expected = GOLDEN_SUMMARIES[scheduler]
        assert set(got) == set(expected)
        mismatches = {
            k: (got[k], expected[k]) for k in expected if got[k] != expected[k]
        }
        assert not mismatches, f"{scheduler} drifted: {mismatches}"


class TestGoldenExecutionMatrix:
    """The pinned summaries must survive every execution mode: serial
    or process-pool (``jobs``), serial or batched tick engine
    (``REPRO_BATCH``).  Workers inherit the knobs through the
    environment, so the matrix covers child processes too."""

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_matrix_bit_identical(self, monkeypatch, jobs):
        from repro.experiments.executor import map_configs

        monkeypatch.delenv("REPRO_STORE", raising=False)
        schedulers = ("greedy", "insertion")
        configs = [
            SimulationConfig(**{**GOLDEN_CONFIG, "scheduler": s}) for s in schedulers
        ]
        results = map_configs(configs, jobs=jobs)
        for scheduler, summary in zip(schedulers, results):
            got = summary.as_dict()
            expected = GOLDEN_SUMMARIES[scheduler]
            mismatches = {
                k: (got[k], expected[k]) for k in expected if got[k] != expected[k]
            }
            assert not mismatches, (
                f"{scheduler} drifted under jobs={jobs}: {mismatches}"
            )

    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize("batch", ["0", "1"])
    def test_batched_matrix_bit_identical(self, monkeypatch, jobs, batch):
        """``REPRO_BATCH=1`` must change wall clock only: the lockstep
        multi-world engine reproduces the goldens bit-for-bit, whether
        the chunks run in-process or across pool workers."""
        from repro.experiments.executor import map_configs

        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("REPRO_BATCH", batch)
        if jobs > 1:
            # One cell per chunk so the shape-batches actually fan out.
            monkeypatch.setenv("REPRO_BATCH_SIZE", "1")
        schedulers = ("greedy", "insertion")
        configs = [
            SimulationConfig(**{**GOLDEN_CONFIG, "scheduler": s}) for s in schedulers
        ]
        results = map_configs(configs, jobs=jobs)
        for scheduler, summary in zip(schedulers, results):
            got = summary.as_dict()
            expected = GOLDEN_SUMMARIES[scheduler]
            mismatches = {
                k: (got[k], expected[k]) for k in expected if got[k] != expected[k]
            }
            assert not mismatches, (
                f"{scheduler} drifted under jobs={jobs}, "
                f"REPRO_BATCH={batch}: {mismatches}"
            )

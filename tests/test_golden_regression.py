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


# Cumulative energy breakdown (``World.energy_breakdown()``) of one
# fixed-seed run per registered scheduler, plus a leaky and a full-time
# run, as hex floats.  Summaries exclude the breakdown, so these pins
# are what notices a change to how the categories accumulate.
BREAKDOWN_CASES = {
    "greedy": {"scheduler": "greedy"},
    "insertion": {"scheduler": "insertion"},
    "partition": {"scheduler": "partition"},
    "combined": {"scheduler": "combined"},
    "fcfs": {"scheduler": "fcfs"},
    "nearest": {"scheduler": "nearest"},
    "insertion+2opt": {"scheduler": "insertion+2opt"},
    "deadline": {"scheduler": "deadline"},
    "combined/leaky": {"self_discharge_fraction_per_day": 0.05},
    "combined/full_time": {"activation": "full_time"},
}

GOLDEN_BREAKDOWNS = {
    "greedy": {
        "idle": "0x1.1b80000000001p+11",
        "sensing": "0x1.02fda6bf1c0a8p+13",
        "relay": "0x1.198a7cc6243c0p+5",
        "leakage": "0x0.0p+0",
        "notifications": "0x1.1256c4b2ccf17p-4",
    },
    "insertion": {
        "idle": "0x1.1b7fffffffffep+11",
        "sensing": "0x1.02fda6bf1c0a8p+13",
        "relay": "0x1.198a7cc6243c0p+5",
        "leakage": "0x0.0p+0",
        "notifications": "0x1.1256c4b2ccf17p-4",
    },
    "partition": {
        "idle": "0x1.1b80000000000p+11",
        "sensing": "0x1.02fda6bf1c0a5p+13",
        "relay": "0x1.b18a3d05440d8p+4",
        "leakage": "0x0.0p+0",
        "notifications": "0x1.e8f8043bac872p-5",
    },
    "combined": {
        "idle": "0x1.1b7fffffffffep+11",
        "sensing": "0x1.02fda6bf1c0a8p+13",
        "relay": "0x1.198a7cc6243c0p+5",
        "leakage": "0x0.0p+0",
        "notifications": "0x1.1256c4b2ccf17p-4",
    },
    "fcfs": {
        "idle": "0x1.1b80000000001p+11",
        "sensing": "0x1.02fda6bf1c0a8p+13",
        "relay": "0x1.198a7cc6243bep+5",
        "leakage": "0x0.0p+0",
        "notifications": "0x1.1256c4b2ccf17p-4",
    },
    "nearest": {
        "idle": "0x1.1b7ffffffffffp+11",
        "sensing": "0x1.02fda6bf1c0a8p+13",
        "relay": "0x1.198a7cc6243bep+5",
        "leakage": "0x0.0p+0",
        "notifications": "0x1.1256c4b2ccf17p-4",
    },
    "insertion+2opt": {
        "idle": "0x1.1b7fffffffffep+11",
        "sensing": "0x1.02fda6bf1c0a8p+13",
        "relay": "0x1.198a7cc6243c0p+5",
        "leakage": "0x0.0p+0",
        "notifications": "0x1.1256c4b2ccf17p-4",
    },
    "deadline": {
        "idle": "0x1.1b7fffffffffep+11",
        "sensing": "0x1.02fda6bf1c0a8p+13",
        "relay": "0x1.198a7cc6243c0p+5",
        "leakage": "0x0.0p+0",
        "notifications": "0x1.1256c4b2ccf17p-4",
    },
    "combined/leaky": {
        "idle": "0x1.1b80000000003p+11",
        "sensing": "0x1.02fda6bf1c0a8p+13",
        "relay": "0x1.198a7cc6243c6p+5",
        "leakage": "0x1.c1800812bf075p+9",
        "notifications": "0x1.1256c4b2ccf17p-4",
    },
    "combined/full_time": {
        "idle": "0x1.1b776d8c9e6d1p+11",
        "sensing": "0x1.487bdb84abaf8p+14",
        "relay": "0x1.9e431703ae8d6p+6",
        "leakage": "0x0.0p+0",
        "notifications": "0x0.0p+0",
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
    or process-pool (``jobs``), so the matrix covers child processes
    too."""

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
    @pytest.mark.parametrize("batch", ["0"])
    def test_batched_matrix_bit_identical(self, monkeypatch, jobs, batch):
        """The multi-world batch engine is gone; a ``REPRO_BATCH=0`` or
        ``REPRO_BATCH_SIZE`` left over in the environment must be inert
        and the goldens hold bit-for-bit, in-process or across pool
        workers."""
        from repro.experiments.executor import map_configs

        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("REPRO_BATCH", batch)
        if jobs > 1:
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


class TestGoldenEnergyBreakdown:
    """Bit-exact per-category Joules of one short run per case."""

    @pytest.mark.parametrize("case", sorted(BREAKDOWN_CASES))
    def test_breakdown_bit_identical(self, case):
        from repro.sim.world import World

        world = World(SimulationConfig(**{**GOLDEN_CONFIG, **BREAKDOWN_CASES[case]}))
        world.run()
        got = {k: v.hex() for k, v in world.energy_breakdown().items()}
        assert got == GOLDEN_BREAKDOWNS[case]

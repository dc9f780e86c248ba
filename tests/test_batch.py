"""The lockstep multi-world engine (repro.sim.batch) and its callers.

Three layers of evidence that ``REPRO_BATCH=1`` is a pure speedup:

* world-by-world parity — whole batches reproduce ``run_simulation``
  summaries bit-for-bit, including mixed horizons (compaction), mixed
  schedulers/ERPs inside one shape batch, and the hypothesis property
  that random horizon/seed draws agree between B=1 and B=32;
* caller equivalence — ``run_batch`` and the executor's shape-batched
  miss path both serialize to the serial engine's bytes;
* attribution — shape-batches of k cells count k tasks in the pool
  stats and stamp ``"batch"`` provenance on store blobs and streamed
  cell results.
"""

import json
import os
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.executor import (
    _batch_payloads,
    default_batch_size,
    iter_configs,
    map_configs,
)
from repro.experiments.store import ResultStore
from repro.obs import Instruments
from repro.sim.batch import BatchedEngine, batchable_config, shape_signature
from repro.sim.config import SimulationConfig
from repro.sim.runner import run_batch, run_simulation
from repro.sim.serialization import snapshot_arrays
from repro.sim.soa import batch_enabled, debug_batch, engine_provenance
from repro.sim.world import World

SMALL_CONFIG = dict(
    n_sensors=30,
    n_targets=5,
    n_rvs=2,
    side_length_m=60.0,
    sim_time_s=4 * 3600.0,
    tick_s=600.0,
    dispatch_period_s=1800.0,
    battery_capacity_j=250.0,
    initial_charge_range=(0.5, 0.8),
    seed=7,
)


def small(**overrides) -> SimulationConfig:
    return SimulationConfig(**{**SMALL_CONFIG, **overrides})


_KNOBS = (
    "REPRO_BATCH", "REPRO_DEBUG_BATCH",
    "REPRO_BATCH_SIZE", "REPRO_STORE", "REPRO_START_METHOD", "REPRO_JOBS",
)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    """Pin the engine knobs to their defaults for every test.

    The explicit post-yield scrub matters: the CLI publishes
    ``REPRO_BATCH`` by writing ``os.environ`` directly, which
    ``monkeypatch.delenv(raising=False)`` on an initially-absent
    variable would not undo.
    """
    for var in _KNOBS:
        monkeypatch.delenv(var, raising=False)
    yield
    for var in _KNOBS:
        os.environ.pop(var, None)


class TestKnobs:
    def test_default_off(self, monkeypatch):
        assert not batch_enabled()
        assert not debug_batch()

    def test_opt_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "1")
        monkeypatch.setenv("REPRO_DEBUG_BATCH", "1")
        assert batch_enabled()
        assert debug_batch()

    def test_engine_provenance_records_batch(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "1")
        prov = engine_provenance()
        assert prov["batch"] is True
        assert prov["batch_debug"] is False

    def test_default_batch_size(self, monkeypatch):
        assert default_batch_size() == 16
        monkeypatch.setenv("REPRO_BATCH_SIZE", "3")
        assert default_batch_size() == 3

    @pytest.mark.parametrize("bad", ["0", "-2", "four"])
    def test_batch_size_rejects_bad_values(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_BATCH_SIZE", bad)
        with pytest.raises(ValueError):
            default_batch_size()


class TestShapeSignature:
    def test_signature_free_fields(self):
        base = small()
        for variant in (
            small(seed=99),
            small(scheduler="greedy"),
            small(erp=0.8),
            small(sim_time_s=2 * 3600.0),
        ):
            assert shape_signature(variant) == shape_signature(base)

    def test_shape_fields_split_batches(self):
        base = small()
        assert shape_signature(small(n_sensors=31)) != shape_signature(base)
        assert shape_signature(small(tick_s=300.0)) != shape_signature(base)
        assert shape_signature(small(n_rvs=3)) != shape_signature(base)

    def test_batchable_config_gates(self):
        assert batchable_config(small())
        assert not batchable_config(small(self_discharge_fraction_per_day=0.01))


class TestRunBatchParity:
    def test_mixed_schedulers_and_seeds(self):
        configs = [
            small(seed=s, scheduler=sched, erp=erp)
            for s in (7, 8)
            for sched, erp in (("combined", 0.5), ("greedy", 0.2))
        ]
        batched = run_batch(configs)
        serial = [run_simulation(c) for c in configs]
        assert [b.as_dict() for b in batched] == [s.as_dict() for s in serial]

    def test_mixed_horizons_compact(self):
        configs = [
            small(seed=10 + i, sim_time_s=h)
            for i, h in enumerate((2 * 3600.0, 4 * 3600.0, 3 * 3600.0, 4 * 3600.0))
        ]
        batched = run_batch(configs)
        serial = [run_simulation(c) for c in configs]
        assert [b.as_dict() for b in batched] == [s.as_dict() for s in serial]

    def test_non_batchable_falls_back_in_order(self):
        configs = [
            small(seed=1),
            small(seed=2, self_discharge_fraction_per_day=0.02),
            small(seed=3),
        ]
        batched = run_batch(configs)
        serial = [run_simulation(c) for c in configs]
        assert [b.as_dict() for b in batched] == [s.as_dict() for s in serial]

    def test_debug_shadow_runs_clean(self):
        configs = [small(seed=s) for s in (5, 6)]
        shadowed = run_batch(configs, debug=True)
        serial = [run_simulation(c) for c in configs]
        assert [b.as_dict() for b in shadowed] == [s.as_dict() for s in serial]

    def test_debug_env_knob_arms_shadow(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_BATCH", "1")
        engine = BatchedEngine([small(seed=5)])
        assert engine.debug
        (summary,) = engine.run()
        assert summary.as_dict() == run_simulation(small(seed=5)).as_dict()


def force_handoff_death(world) -> int:
    """Leave one retiring duty holder enough charge to outlive the first
    tick's drain but not its hand-off notification, so the first
    rotation empties its battery."""
    s = world.state
    alive = s.arrays.alive
    actives = s.activator.active_sensor_per_cluster(alive)
    victim = next(
        int(actives[c.cluster_id])
        for c in s.cluster_set
        if np.count_nonzero(alive[c.members]) >= 2
    )
    ea = world.energy
    s.bank.levels_j[victim] = ea.rates[victim] * world.cfg.tick_s + 0.5 * ea._notification_j
    return victim


class TestBatchedDeathCoherence:
    """Both engines keep every world's ``energy.alive`` current, hand-off
    deaths included; summary digests alone would not notice a stale
    mask, the depletion count and the adaptive ERC history do."""

    def test_handoff_death_matches_serial(self):
        cfgs = [
            small(
                adaptive_erp=True,
                initial_charge_range=(0.02, 0.4),
                seed=seed,
                sim_time_s=hours * 3600.0,
            )
            for seed, hours in ((7, 6.0), (8, 12.0))
        ]
        serial = [World(c, instruments=Instruments()) for c in cfgs]
        batched = [World(c, instruments=Instruments(), external_tick=True) for c in cfgs]
        victims = [force_handoff_death(w) for w in serial]
        assert [force_handoff_death(w) for w in batched] == victims
        want = [w.run() for w in serial]
        engine = BatchedEngine(worlds=batched)
        while engine.step():
            for w in engine.worlds:
                assert np.array_equal(w.energy.alive, w.state.bank.levels_j > 0.0)
        for ser, bat, summary, got_summary in zip(serial, batched, want, engine.summaries):
            deaths = [
                w.state.instruments.counter("energy.depletions").value
                for w in (ser, bat)
            ]
            assert deaths[0] == deaths[1] > 0  # on_deaths fired on both
            assert bat.energy.breakdown() == ser.energy.breakdown()
            assert bat.gate.erc.history == ser.gate.erc.history
            assert got_summary.as_dict() == summary.as_dict()
            got, ref = snapshot_arrays(bat.state), snapshot_arrays(ser.state)
            assert got.keys() == ref.keys()
            for field in ref:
                assert np.array_equal(got[field], ref[field]), field

    def test_handoff_drain_kills_the_victim(self):
        w = World(small(seed=7), external_tick=True)
        victim = force_handoff_death(w)
        engine = BatchedEngine(worlds=[w])
        engine.step()
        assert w.state.bank.levels_j[victim] == 0.0
        assert not w.energy.alive[victim]


class TestBatchedVsSingleProperty:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_random_horizons_agree_world_by_world(self, data):
        """B=32 lockstep == 32 independent B=1 engines, per world."""
        draws = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=2**16),
                    st.integers(min_value=2, max_value=8),  # ticks
                ),
                min_size=32,
                max_size=32,
            )
        )
        configs = [
            small(seed=seed, sim_time_s=ticks * SMALL_CONFIG["tick_s"])
            for seed, ticks in draws
        ]
        wide = run_batch(configs)
        narrow = [run_batch([c])[0] for c in configs]
        assert [w.as_dict() for w in wide] == [n.as_dict() for n in narrow]


GRID = [
    dict(seed=s, scheduler=sched, erp=erp)
    for s in (7, 8)
    for sched in ("combined", "greedy")
    for erp in (0.3, 0.6)
]


class TestExecutorBatching:
    def test_map_configs_byte_identical_to_serial(self, monkeypatch):
        configs = [small(**cell) for cell in GRID]
        serial = map_configs(configs, jobs=1)
        monkeypatch.setenv("REPRO_BATCH", "1")
        monkeypatch.setenv("REPRO_BATCH_SIZE", "3")
        batched = map_configs(configs, jobs=1)
        assert json.dumps([b.as_dict() for b in batched], sort_keys=True) == (
            json.dumps([s.as_dict() for s in serial], sort_keys=True)
        )

    def test_store_blobs_carry_batch_provenance(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BATCH", "1")
        store = ResultStore(tmp_path / "store")
        configs = [small(seed=s) for s in (1, 2)]
        map_configs(configs, jobs=1, store=store)
        for cfg in configs:
            blob = json.loads(
                store._blob_path(store.key_for(cfg)).read_text()
            )
            assert blob["source"] == "batch"

    def test_iter_configs_streams_batch_source(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BATCH", "1")
        store = ResultStore(tmp_path / "store")
        configs = [small(seed=s) for s in (1, 2, 3)]
        rows = list(iter_configs(configs, jobs=1, store=store))
        assert sorted(i for i, _, _ in rows) == [0, 1, 2]
        assert {src for _, _, src in rows} == {"batch"}
        again = list(iter_configs(configs, jobs=1, store=store))
        assert {src for _, _, src in again} == {"store"}

    def test_batch_payloads_group_and_chunk(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_SIZE", "2")
        configs = [small(seed=s) for s in range(5)] + [small(seed=9, n_sensors=31)]
        misses = list(range(len(configs)))
        chunks, payloads = _batch_payloads(configs, misses)
        assert sorted(len(c) for c in chunks) == [1, 1, 2, 2]
        assert [len(c) for c in chunks] == [len(p) for p in payloads]
        # Order within a shape group is preserved.
        flat = [j for chunk in chunks for j in chunk]
        assert sorted(flat) == misses
        assert chunks[0] == [0, 1]

    def test_warm_pool_counts_cells_not_chunks(self, monkeypatch):
        """The per-call pool's weighted ``tasks`` stat counts the cells
        a shape-batch covers, not the payloads shipped."""
        monkeypatch.setenv("REPRO_BATCH", "1")
        monkeypatch.setenv("REPRO_BATCH_SIZE", "2")
        configs = [small(seed=s) for s in range(4)]
        serial = [run_simulation(c) for c in configs]
        obs = Instruments()
        pooled = map_configs(configs, jobs=2, instruments=obs)
        assert [p.as_dict() for p in pooled] == [s.as_dict() for s in serial]
        assert obs.snapshot()["counters"]["pool.tasks"] == 4  # 4 cells, not 2 chunks


class TestBenchHistoryCap:
    @pytest.fixture()
    def shared(self, monkeypatch, tmp_path):
        bench_dir = str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks")
        monkeypatch.syspath_prepend(bench_dir)
        import _shared

        monkeypatch.setattr(_shared, "RESULTS_DIR", tmp_path)
        return _shared

    def test_emit_trims_history_to_cap(self, shared, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BENCH_HISTORY_MAX", "3")
        for i in range(5):
            shared.emit("capped", "table", extra={"t_probe_s": float(i)})
        payload = json.loads((tmp_path / "BENCH_capped.json").read_text())
        assert len(payload["history"]) == 3
        assert [row["t_probe_s"] for row in payload["history"]] == [2.0, 3.0, 4.0]

    def test_history_cap_default_and_validation(self, shared, monkeypatch):
        assert shared.history_max() == 200
        monkeypatch.setenv("REPRO_BENCH_HISTORY_MAX", "7")
        assert shared.history_max() == 7
        for bad in ("0", "many"):
            monkeypatch.setenv("REPRO_BENCH_HISTORY_MAX", bad)
            with pytest.raises(ValueError):
                shared.history_max()


class TestCLI:
    def test_run_batch_flag_matches_serial(self, capsys, monkeypatch):
        from repro.cli import main

        argv = [
            "run", "--sensors", "30", "--targets", "5", "--days", "0.1",
            "--seed", "3", "--json",
        ]
        assert main(argv) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(argv + ["--batch"]) == 0
        batched = json.loads(capsys.readouterr().out)
        assert os.environ.get("REPRO_BATCH") == "1"
        assert batched == serial

    def test_no_batch_flag_publishes_opt_out(self, monkeypatch):
        from repro.cli import main

        argv = [
            "run", "--sensors", "30", "--targets", "5", "--days", "0.05",
            "--no-batch", "--json",
        ]
        assert main(argv) == 0
        assert os.environ.get("REPRO_BATCH") == "0"


def test_worlds_reusable_for_screening():
    """run_batch screens with a tickless world, then batches it — the
    engine must schedule ticks itself for externally built worlds."""
    cfg = small(seed=4)
    world = World(cfg, external_tick=True)
    engine = BatchedEngine(worlds=[world])
    (summary,) = engine.run()
    assert summary.as_dict() == run_simulation(cfg).as_dict()

"""The per-process deployment memo (``state.static_network``).

Every world of one deployment shares one unit-disk graph, Dijkstra tree,
uplink-ETX vector and ancestor table, and the clusters of every target
epoch it reaches.  Sharing must not be observable: a world built on a
memo hit runs bit-identically to one built from scratch or after an
eviction, interleaved worlds do not disturb each other, the shared
arrays refuse in-place writes, and the reference tick paths neither
read nor fill the memo.
"""

import collections
import hashlib
import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.core.clustering import balanced_clustering
from repro.experiments.common import ERP_GRID, SCHEMES, ExperimentScale
from repro.experiments.executor import map_cells
from repro.registry import CLUSTERINGS
from repro.sim.components import state as state_mod
from repro.sim.components.state import (
    EPOCH_MEMO_SIZE,
    NETWORK_MEMO_SIZE,
    SimulationState,
    static_network,
)
from repro.sim.config import DAY_S, SimulationConfig
from repro.sim.serialization import snapshot_arrays
from repro.sim.world import World

from oracles import reference_tick_paths
from test_soa import DEGENERATE_INPUTS, SMALL_CONFIG

METRICS = ("distance", "etx")
#: Half-day cells over more seeds than the memo holds deployments.
TEN_SEEDS = ExperimentScale("short", 0.5, tuple(range(1, 11)))


def _config(metric: str, **overrides) -> SimulationConfig:
    return SimulationConfig.small(routing_metric=metric, sim_time_s=86400.0, **overrides)


def _bytes(summary) -> str:
    return json.dumps(summary.as_dict(), sort_keys=True)


@pytest.fixture(autouse=True)
def empty_memo():
    state_mod._build_network.cache_clear()
    yield
    state_mod._build_network.cache_clear()


def _cold_warm_evicted(cfg, monkeypatch):
    """One configuration's summary bytes from a cold memo, a warm one,
    after its deployment was evicted, and with a one-epoch table that
    evicts (and re-forms) every epoch."""
    state_mod._build_network.cache_clear()
    cold_world = World(cfg)
    first_epoch = cold_world.state.cluster_set
    cold = _bytes(cold_world.run())
    warm_world = World(cfg)
    assert state_mod._build_network.cache_info().hits == 1
    assert warm_world.state.network is cold_world.state.network
    assert warm_world.state.cluster_set is first_epoch  # the t = 0 epoch hits
    warm = _bytes(warm_world.run())
    for k in range(NETWORK_MEMO_SIZE):  # push the deployment out
        SimulationState.from_config(cfg.with_overrides(comm_range_m=cfg.comm_range_m + 1 + k))
    misses = state_mod._build_network.cache_info().misses
    evicted = _bytes(World(cfg).run())
    assert state_mod._build_network.cache_info().misses == misses + 1
    with monkeypatch.context() as m:
        m.setattr(state_mod, "EPOCH_MEMO_SIZE", 1)
        one_epoch = [_bytes(World(cfg).run()) for _ in range(2)]
    return [cold, warm, evicted, *one_epoch]


@pytest.mark.parametrize("metric", METRICS)
def test_memo_hit_runs_like_a_fresh_build(metric, monkeypatch):
    for clustering in ("balanced", "nearest_target"):
        runs = _cold_warm_evicted(_config(metric, clustering=clustering), monkeypatch)
        assert runs == [runs[0]] * len(runs), clustering


@pytest.mark.parametrize("metric", METRICS)
def test_worlds_of_one_deployment_share_the_network(metric):
    a = SimulationState.from_config(_config(metric, erp=0.0))
    b = SimulationState.from_config(_config(metric, erp=0.5, scheduler="greedy"))
    assert a.topology is b.topology
    assert a.routing is b.routing
    assert a.uplink_etx is b.uplink_etx
    other = SimulationState.from_config(_config(metric, seed=a.cfg.seed + 1))
    assert other.routing is not a.routing


@pytest.mark.parametrize("metric", METRICS)
def test_shared_arrays_are_read_only(metric):
    world = World(_config(metric))
    world.state.sim.run_until(world.cfg.target_period_s)  # a second epoch
    s = world.state
    shared = {
        "topology.points": s.topology.points,
        "topology.indptr": s.topology.indptr,
        "topology.indices": s.topology.indices,
        "topology.weights": s.topology.weights,
        "routing.weights": s.routing.topology.weights,
        "routing.dist": s.routing.dist,
        "routing.parent": s.routing.parent,
        "uplink_etx": s.uplink_etx,
        "ancestors": s.network.ancestors,
    }
    assert len(s.network.epochs) == 2
    for i, (coverable, cluster_set) in enumerate(s.network.epochs.values()):
        shared[f"epoch{i}.coverable"] = coverable
        shared[f"epoch{i}.membership"] = cluster_set.membership
        for c in cluster_set:
            shared[f"epoch{i}.cluster{c.cluster_id}.members"] = c.members
    for name, arr in shared.items():
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = arr
    # Replacing the attribute stays legal: it touches no shared array.
    s.uplink_etx = np.full_like(s.uplink_etx, 2.0)
    assert SimulationState.from_config(_config(metric)).uplink_etx[0] != 2.0
    # Every world of the deployment counts relays from the one table.
    assert world.energy._ancestors is s.network.ancestors
    assert World(_config(metric)).energy._ancestors is s.network.ancestors


@pytest.mark.parametrize("metric", METRICS)
def test_interleaved_worlds_match_sequential_runs(metric):
    cfgs = [_config(metric, erp=0.0), _config(metric, erp=0.6, scheduler="partition")]
    sequential = [_bytes(World(cfg).run()) for cfg in cfgs]
    worlds = [World(cfg) for cfg in cfgs]
    horizon = cfgs[0].sim_time_s
    for t in np.linspace(0.0, horizon, 13)[1:-1]:
        for w in worlds:
            w.state.sim.run_until(float(t))
    assert [_bytes(w.run()) for w in worlds] == sequential


def test_key_is_the_deployment_content():
    s = SimulationState.from_config(_config("distance"))
    args = (s.cfg.comm_range_m, s.field.base_station, "distance")
    # An equal copy of the positions is a hit; a moved sensor is not.
    assert static_network(s.sensor_pos.copy(), *args).routing is s.routing
    moved = s.sensor_pos.copy()
    moved[0, 0] = np.nextafter(moved[0, 0], np.inf)
    assert static_network(moved, *args).routing is not s.routing
    assert static_network(s.sensor_pos, *args[:2], "etx").routing is not s.routing


def _small(**overrides) -> SimulationConfig:
    return SimulationConfig(**{**SMALL_CONFIG, "sim_time_s": DAY_S, **overrides})


@pytest.mark.parametrize(
    "overrides", list(DEGENERATE_INPUTS.values()), ids=list(DEGENERATE_INPUTS)
)
def test_degenerate_inputs_run_alike_on_any_memo(overrides, monkeypatch):
    runs = _cold_warm_evicted(_small(**overrides), monkeypatch)
    assert runs == [runs[0]] * len(runs)


def test_epoch_key_names_the_alive_mask_and_the_sensing_range():
    """Same deployment, same targets: one more dead sensor or another
    sensing range forms its own epoch, equal to a cold memo's."""
    cfg = _small()
    world = World(cfg)
    s = world.state
    first = s.cluster_set
    victim = int(next(c for c in first if c.size).members[0])
    s.bank.levels_j[victim] = 0.0
    world.clusters.rebuild()
    assert s.cluster_set is not first
    assert s.cluster_set.cluster_of(victim) == -1
    wider = World(cfg.with_overrides(sensing_range_m=2 * cfg.sensing_range_m))
    assert wider.state.network is s.network
    assert wider.state.cluster_set is not first
    state_mod._build_network.cache_clear()
    cold = World(cfg.with_overrides(sensing_range_m=2 * cfg.sensing_range_m)).state
    assert np.array_equal(wider.state.cluster_set.membership, cold.cluster_set.membership)
    assert np.array_equal(wider.state.coverable, cold.coverable)


def test_registered_clustering_runs_once_per_epoch_input():
    """Worlds of one deployment that reach the same epoch input (target
    positions, alive sensors, sensing range) share one clustering call;
    another callable under the same name is not served from the memo."""
    inputs = []

    def counting(sensors, targets, sensing_range_m):
        inputs.append(hashlib.sha256(
            sensors.tobytes() + targets.tobytes() + repr(sensing_range_m).encode()
        ).hexdigest())
        return balanced_clustering(sensors, targets, sensing_range_m)

    CLUSTERINGS.register("counting", counting)
    try:
        cfgs = [
            _small(clustering="counting", erp=erp, scheduler=scheduler)
            for scheduler in ("greedy", "combined") for erp in (0.0, 1.0)
        ]
        worlds = [World(cfg) for cfg in cfgs]
        got = [_bytes(w.run()) for w in worlds]
        rebuilds = sum(1 + w.state.targets.epoch for w in worlds)
        assert len(inputs) == len(set(inputs)) < rebuilds
        assert len(inputs) <= EPOCH_MEMO_SIZE
        formed = len(inputs)
        assert [_bytes(World(cfg).run()) for cfg in cfgs] == got  # all hits
        assert len(inputs) == formed
        want = [_bytes(World(cfg.with_overrides(clustering="balanced")).run()) for cfg in cfgs]
        assert got == want

        CLUSTERINGS.register(
            "counting", lambda *args: counting(*args), replace=True
        )
        World(cfgs[0])
        assert len(inputs) == formed + 1
    finally:
        CLUSTERINGS.unregister("counting")


@pytest.mark.parametrize("activation", ["round_robin", "full_time"])
def test_reference_tick_paths_neither_read_nor_fill_the_memo(activation):
    """A reference-path world built on a cold memo, then a plain world
    in the same session: the plain world runs bit-identically to one
    built from a fresh memo."""
    cfg = _small(activation=activation)
    fresh = World(cfg)
    want = (_bytes(fresh.run()), snapshot_arrays(fresh.state))
    state_mod._build_network.cache_clear()
    with reference_tick_paths() as calls:
        ref = World(cfg)
        ref_summary = _bytes(ref.run())
    assert calls["relay"] >= 1 and calls[activation] >= 1 and calls["erc"] >= 1
    assert ref.energy._ancestors is not ref.state.network.ancestors  # the walk's parents
    assert ref_summary == want[0]
    plain = World(cfg)
    assert plain.state.network is ref.state.network  # filled by the memo, not the patch
    assert plain.energy._ancestors is plain.state.network.ancestors
    got = (_bytes(plain.run()), snapshot_arrays(plain.state))
    assert got[0] == want[0]
    assert set(got[1]) == set(want[1])
    for key in want[1]:
        assert np.array_equal(got[1][key], want[1][key]), key


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the build record reaches the workers through fork",
)
def test_pooled_ten_seed_sweep_builds_each_deployment_once_per_worker(
    tmp_path, monkeypatch
):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.setenv("REPRO_START_METHOD", "fork")
    record = tmp_path / "builds"
    real = state_mod._build_network

    def recording(positions, *args):
        misses = real.cache_info().misses
        network = real(positions, *args)
        if real.cache_info().misses > misses:
            with open(record, "a") as f:
                f.write(f"{os.getpid()} {hashlib.sha256(positions).hexdigest()}\n")
        return network

    monkeypatch.setattr(state_mod, "_build_network", recording)
    pooled = map_cells(TEN_SEEDS, ("greedy", "combined"), (0.0, 0.6), jobs=2)
    builds = [line.split() for line in record.read_text().splitlines()]
    per_worker = collections.Counter(map(tuple, builds))
    assert os.getpid() not in {int(pid) for pid, _ in builds}
    assert max(per_worker.values()) == 1
    assert len({deployment for _, deployment in builds}) == 10
    monkeypatch.setattr(state_mod, "_build_network", real)
    serial = map_cells(TEN_SEEDS, ("greedy", "combined"), (0.0, 0.6), jobs=1)
    assert pooled == serial


def test_short_grid_builds_one_network_per_seed(monkeypatch):
    """``map_cells`` varies the seed fastest; its misses run grouped by
    deployment, so a serial grid builds each deployment once, also over
    more seeds than the memo holds."""
    monkeypatch.delenv("REPRO_STORE", raising=False)
    out = map_cells(ExperimentScale("short", 0.5, (1, 2)), SCHEMES, ERP_GRID, jobs=1)
    info = state_mod._build_network.cache_info()
    assert len(out) == 36
    assert (info.misses, info.hits) == (2, 34)
    state_mod._build_network.cache_clear()
    assert len(TEN_SEEDS.seeds) > NETWORK_MEMO_SIZE
    out = map_cells(TEN_SEEDS, ("greedy", "combined"), (0.0, 0.6), jobs=1)
    info = state_mod._build_network.cache_info()
    assert len(out) == 40
    assert (info.misses, info.hits) == (10, 30)

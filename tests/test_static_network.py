"""The per-process static-network memo (``state.static_network``).

Every world of one deployment shares one unit-disk graph, Dijkstra tree
and uplink-ETX vector.  Sharing must not be observable: a world built on
a memo hit runs bit-identically to one built from scratch, interleaved
worlds do not disturb each other, and the shared arrays refuse in-place
writes.
"""

import json

import numpy as np
import pytest

from repro.experiments.common import ERP_GRID, SCHEMES, ExperimentScale
from repro.experiments.executor import map_cells
from repro.sim.components import state as state_mod
from repro.sim.components.state import NETWORK_MEMO_SIZE, SimulationState, static_network
from repro.sim.config import SimulationConfig
from repro.sim.world import World

METRICS = ("distance", "etx")


def _config(metric: str, **overrides) -> SimulationConfig:
    return SimulationConfig.small(routing_metric=metric, sim_time_s=86400.0, **overrides)


def _bytes(summary) -> str:
    return json.dumps(summary.as_dict(), sort_keys=True)


@pytest.fixture(autouse=True)
def empty_memo():
    state_mod._build_network.cache_clear()
    yield
    state_mod._build_network.cache_clear()


@pytest.mark.parametrize("metric", METRICS)
def test_memo_hit_runs_like_a_fresh_build(metric):
    cfg = _config(metric)
    cold = World(cfg).run()
    warm_world = World(cfg)
    assert state_mod._build_network.cache_info().hits == 1
    warm = warm_world.run()
    state_mod._build_network.cache_clear()
    again = World(cfg).run()
    assert _bytes(warm) == _bytes(cold) == _bytes(again)


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
    s = SimulationState.from_config(_config(metric))
    shared = {
        "topology.points": s.topology.points,
        "topology.indptr": s.topology.indptr,
        "topology.indices": s.topology.indices,
        "topology.weights": s.topology.weights,
        "routing.weights": s.routing.topology.weights,
        "routing.dist": s.routing.dist,
        "routing.parent": s.routing.parent,
        "uplink_etx": s.uplink_etx,
    }
    for arr in shared.values():
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
    # Replacing the attribute stays legal: it touches no shared array.
    s.uplink_etx = np.full_like(s.uplink_etx, 2.0)
    assert SimulationState.from_config(_config(metric)).uplink_etx[0] != 2.0


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


def test_short_grid_builds_one_network_per_seed(monkeypatch):
    """``map_cells`` varies the seed fastest, so a serial grid of two
    seeds misses exactly twice: the memo holds both deployments."""
    monkeypatch.delenv("REPRO_STORE", raising=False)
    scale = ExperimentScale("short", 0.5, (1, 2))
    assert NETWORK_MEMO_SIZE >= len(scale.seeds)
    out = map_cells(scale, SCHEMES, ERP_GRID, jobs=1)
    info = state_mod._build_network.cache_info()
    assert len(out) == 36
    assert (info.misses, info.hits) == (2, 34)

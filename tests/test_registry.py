"""Tests for the component registries (repro.registry)."""

import numpy as np
import pytest

from repro.core.greedy import GreedyScheduler
from repro.core.scheduling import PlannedRoute
from repro.registry import (
    ACTIVATORS,
    CLUSTERINGS,
    ERC_POLICIES,
    MOBILITY_MODELS,
    SCHEDULERS,
    Registry,
    erc_policy_name,
)
from repro.sim.config import SimulationConfig
from repro.sim.runner import make_scheduler, run_simulation


class TestRegistryMechanics:
    def test_builtin_names_present(self):
        assert {"greedy", "insertion", "partition", "combined"} <= set(SCHEDULERS.names())
        assert set(ACTIVATORS.names()) == {"round_robin", "full_time"}
        assert set(ERC_POLICIES.names()) == {"static", "adaptive"}
        assert set(CLUSTERINGS.names()) == {"balanced", "nearest_target"}
        assert set(MOBILITY_MODELS.names()) == {"jump", "waypoint"}

    def test_registration_order_preserved(self):
        assert SCHEDULERS.names()[:4] == ("greedy", "insertion", "partition", "combined")

    def test_contains_and_len(self):
        assert "greedy" in SCHEDULERS
        assert "dijkstra" not in SCHEDULERS
        assert len(SCHEDULERS) == len(SCHEDULERS.names())

    def test_unknown_error_lists_registered_names(self):
        with pytest.raises(ValueError) as exc:
            SCHEDULERS.build("dijkstra", fleet_size=1)
        msg = str(exc.value)
        for name in SCHEDULERS.names():
            assert name in msg

    def test_duplicate_registration_rejected(self):
        reg = Registry("thing")
        reg.register("a", lambda: 1)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", lambda: 2)
        # replace=True overrides.
        reg.register("a", lambda: 3, replace=True)
        assert reg.build("a") == 3

    def test_decorator_registration(self):
        reg = Registry("thing")

        @reg.register("x", schema={"k": "a knob"})
        def build_x(k=0):
            """Builds an x."""
            return ("x", k)

        assert reg.build("x", k=5) == ("x", 5)
        spec = reg.spec("x")
        assert spec.schema == {"k": "a knob"}
        assert spec.doc == "Builds an x."

    def test_unregister(self):
        reg = Registry("thing")
        reg.register("a", lambda: 1)
        reg.unregister("a")
        assert "a" not in reg
        with pytest.raises(ValueError):
            reg.unregister("a")

    def test_check_returns_name(self):
        assert SCHEDULERS.check("greedy") == "greedy"

    def test_erc_policy_name(self):
        assert erc_policy_name(False) == "static"
        assert erc_policy_name(True) == "adaptive"


class TestMakeSchedulerViaRegistry:
    def test_delegates_to_registry(self):
        assert isinstance(make_scheduler("greedy", 3), GreedyScheduler)

    def test_error_message_tracks_registry(self):
        with pytest.raises(ValueError) as exc:
            make_scheduler("nope", 1)
        assert "combined" in str(exc.value)

    def test_partition_empty_fleet_constructible(self):
        # n_rvs = 0 worlds never consult the scheduler, but they must
        # still construct (hypothesis covers this whole option space).
        s = make_scheduler("partition", 0)
        assert s.fleet_size == 1


class _EveryoneHomeScheduler:
    """Test double: serves every pending request with the first RV."""

    name = "everyone-home"

    def assign(self, requests, idle_rvs, rng):
        if not idle_rvs or len(requests) == 0:
            return {}
        rv = idle_rvs[0]
        reqs = list(requests)
        node_ids = [r.node_id for r in reqs]
        pts = np.vstack([rv.position] + [r.position for r in reqs])
        travel = float(np.sum(np.hypot(*(pts[1:] - pts[:-1]).T)))
        demand = float(sum(r.demand_j for r in reqs))
        for node in node_ids:
            requests.remove(node)
        return {
            rv.rv_id: PlannedRoute(
                node_ids=tuple(node_ids),
                waypoints=pts,
                travel_m=travel,
                demand_j=demand,
                profit_j=demand - rv.em_j_per_m * travel,
            )
        }


class TestRegistryRoundTrip:
    """Register → select by config string → run: no engine edits needed."""

    def test_custom_scheduler_selectable_by_name(self):
        SCHEDULERS.register(
            "everyone-home",
            lambda fleet_size: _EveryoneHomeScheduler(),
            schema={"fleet_size": "unused"},
            doc="Test double serving the whole backlog with one RV.",
        )
        try:
            cfg = SimulationConfig(
                n_sensors=30,
                n_targets=2,
                n_rvs=1,
                side_length_m=50.0,
                sim_time_s=6 * 3600.0,
                battery_capacity_j=300.0,
                initial_charge_range=(0.5, 0.7),
                dispatch_period_s=1800.0,
                tick_s=300.0,
                scheduler="everyone-home",  # config validation consults the registry
                seed=3,
            )
            summary = run_simulation(cfg)
            assert summary.n_recharges > 0
            # Config validation reads the same registry.
            from repro.sim import config as config_module

            assert "everyone-home" in config_module.SCHEDULERS
        finally:
            SCHEDULERS.unregister("everyone-home")
        with pytest.raises(ValueError):
            SimulationConfig(scheduler="everyone-home")


class _LowestAliveActivator:
    """Plugin activator: the lowest-ID alive member of each cluster
    monitors, with no rotation (the documented four-method protocol)."""

    rotates = False

    def __init__(self, cluster_set, arrays):
        self.cluster_set = cluster_set
        self.arrays = arrays

    def active_sensor_per_cluster(self, alive):
        out = np.full(len(self.cluster_set), -1, dtype=np.int64)
        for c in self.cluster_set:
            live = c.members[alive[c.members]]
            if len(live):
                out[c.cluster_id] = live[0]
        return out

    def active_mask(self, alive):
        mask = np.zeros(self.cluster_set.n_sensors, dtype=bool)
        on = self.active_sensor_per_cluster(alive)
        mask[on[on >= 0]] = True
        return mask

    def covered_mask(self, alive):
        # A function of the alive mask and the cluster epoch only.
        return self.active_sensor_per_cluster(alive) >= 0

    def rotate(self, alive):
        return np.empty((0, 2), dtype=np.int64)


class _HalvingPolicy:
    """Plugin ERC policy: a validated ``erp`` that halves every time a
    sensor dies, plus the two optional hooks."""

    def __init__(self, erp):
        if not 0.0 <= erp <= 1.0:
            raise ValueError("erp must lie in [0, 1]")
        self.erp = erp
        self.deaths = 0
        self.adjust_calls = 0

    def observe_deaths(self, count):
        self.deaths += count

    def maybe_adjust(self, now_s):
        self.adjust_calls += 1
        if self.deaths:
            self.erp /= 2


class TestPluginProtocol:
    def test_plugin_activator_and_erc_policy_run_strict(self):
        """A plugin activator and a plugin ERC policy, registered under
        the documented protocol, run a 1-day world under strict
        monitors.  The config picks its ERC policy by ``adaptive_erp``,
        so the plugin takes the ``static`` name for the test and the
        built-in is restored after it."""
        from repro.obs.monitors import MonitorSet
        from repro.sim.config import DAY_S
        from repro.sim.world import World

        static = ERC_POLICIES.spec("static")
        ACTIVATORS.register(
            "lowest-alive",
            lambda cluster_set, arrays: _LowestAliveActivator(cluster_set, arrays),
            schema={"cluster_set": "the current ClusterSet", "arrays": "StateArrays"},
        )
        ERC_POLICIES.register(
            "static", lambda config: _HalvingPolicy(config.erp), replace=True
        )
        try:
            cfg = SimulationConfig.small(
                activation="lowest-alive", erp=0.5, sim_time_s=DAY_S, seed=5
            )
            monitors = MonitorSet(strict=True)
            world = World(cfg, monitors=monitors)
            summary = world.run()
            s = world.state
            assert isinstance(s.activator, _LowestAliveActivator)
            assert s.activator.arrays is s.arrays
            assert isinstance(world.gate.erc, _HalvingPolicy)
            assert world.gate.erc.adjust_calls > 0
            assert summary.n_requests > 0
            assert monitors.violations == []
            # One monitoring member per cluster with an alive member.
            on = s.activator.active_mask(s.arrays.alive)
            assert np.count_nonzero(on) == np.count_nonzero(
                s.activator.covered_mask(s.arrays.alive)
            )
        finally:
            ACTIVATORS.unregister("lowest-alive")
            ERC_POLICIES.register(
                "static", static.factory, schema=static.schema, doc=static.doc, replace=True
            )
        assert ERC_POLICIES.spec("static") == static
        with pytest.raises(ValueError):
            SimulationConfig(activation="lowest-alive")

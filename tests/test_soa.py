"""The structure-of-arrays tick engine (repro.sim.soa).

Three layers of evidence that the array tick path computes exactly what
the per-object loops specify:

* kernel parity — every array kernel (rotation, ERC scan, prefix-sum
  relay counts) reproduces its per-cluster / per-origin loop
  bit-for-bit on randomized inputs;
* engine equivalence — whole runs and random tick sequences produce
  identical snapshots and summaries on the array path and on the
  reference tick paths (``oracles.reference_tick_paths``: the
  per-cluster activation and ERC loops, plus the relay walk),
  including a hypothesis property test;
* allocation discipline — every buffer of the SoA block is the same
  object across steady-state ticks, proving the preallocated scratch
  is actually reused.
"""

import contextlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import Cluster, ClusterSet
from repro.core.erc import AdaptiveEnergyRequestController, EnergyRequestController
from repro.network.routing import ancestor_table
from repro.registry import ACTIVATORS
from repro.sim.config import SimulationConfig
from repro.sim.runner import run_simulation
from repro.sim.serialization import snapshot_arrays
from repro.sim.soa import (
    FullTimeActivator,
    RoundRobinActivator,
    StateArrays,
    erc_gate_constants,
    erc_release,
    pack_clusters,
    relay_counts,
    rotation_table,
)
from repro.sim.world import World

from oracles import (
    FullTimeLoop,
    RoundRobinLoop,
    nodes_to_release,
    reference_tick_paths,
    walk_counts,
    walk_relay_counts,
)


def random_cluster_set(rng, n_sensors, n_clusters):
    """Random disjoint clusters (possibly empty) over ``n_sensors``."""
    perm = rng.permutation(n_sensors)
    cuts = sorted(rng.integers(0, n_sensors + 1, size=n_clusters - 1).tolist()) if n_clusters > 1 else []
    chunks = np.split(perm, cuts)
    clusters = [
        Cluster(i, np.sort(chunk)) for i, chunk in enumerate(chunks[:n_clusters])
    ]
    while len(clusters) < n_clusters:
        clusters.append(Cluster(len(clusters), np.array([], dtype=np.int64)))
    return ClusterSet(clusters, n_sensors)


SMALL_CONFIG = dict(
    n_sensors=40,
    n_targets=6,
    n_rvs=2,
    side_length_m=60.0,
    sim_time_s=6 * 3600.0,
    tick_s=600.0,
    dispatch_period_s=1800.0,
    battery_capacity_j=300.0,
    initial_charge_range=(0.5, 0.8),
    seed=7,
)


class TestRotationParity:
    """Array rotation == reference rotation, slot for slot."""

    @pytest.mark.parametrize("seed", range(6))
    def test_round_robin_long_random_walk(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        m = int(rng.integers(1, 8))
        cs = random_cluster_set(rng, n, m)
        arrays = StateArrays(n, 0)
        ref = RoundRobinLoop(cs)
        soa = RoundRobinActivator(cs, arrays)
        for _ in range(40):
            alive = rng.random(n) > rng.uniform(0.0, 0.6)
            assert np.array_equal(
                soa.active_sensor_per_cluster(alive),
                ref.active_sensor_per_cluster(alive),
            )
            assert np.array_equal(soa.active_mask(alive), ref.active_mask(alive))
            assert np.array_equal(soa.covered_mask(alive), ref.covered_mask(alive))
            assert np.array_equal(soa.rotate(alive), ref.rotate(alive))
            assert np.array_equal(arrays.ptr, ref._ptr)

    @pytest.mark.parametrize("seed", range(6))
    def test_round_robin_sticky_masks(self, seed):
        """Slow churn, as in a run: 5-50 rotations under one alive mask
        (so the rotation table is reused) between single deaths or
        revivals.  Rows of size 0, 1 and ``w`` and an all-dead row are
        always present."""
        rng = np.random.default_rng(200 + seed)
        w = int(rng.integers(3, 9))
        sizes = [0, 1, w, 0] + rng.integers(0, w + 1, size=int(rng.integers(0, 5))).tolist()
        sizes[3] = int(rng.integers(1, w + 1))  # the all-dead row
        perm = rng.permutation(sum(sizes) + int(rng.integers(0, 6)))
        n = len(perm)
        bounds = np.cumsum([0] + sizes)
        cs = ClusterSet(
            [Cluster(c, np.sort(perm[bounds[c] : bounds[c + 1]])) for c in range(len(sizes))],
            n,
        )
        arrays = StateArrays(n, 0)
        ref = RoundRobinLoop(cs)
        soa = RoundRobinActivator(cs, arrays)
        alive = rng.random(n) > 0.3
        alive[cs[3].members] = False
        for _ in range(8):
            table = soa.rotation_table(alive)
            assert table.cur.shape == table.nxt.shape == (len(sizes), w)
            for _ in range(int(rng.integers(5, 51))):
                assert np.array_equal(
                    soa.active_sensor_per_cluster(alive),
                    ref.active_sensor_per_cluster(alive),
                )
                assert np.array_equal(soa.active_mask(alive), ref.active_mask(alive))
                assert np.array_equal(soa.covered_mask(alive), ref.covered_mask(alive))
                assert np.array_equal(soa.rotate(alive), ref.rotate(alive))
                assert np.array_equal(arrays.ptr, ref._ptr)
                assert soa.rotation_table(alive) is table  # reused, not rebuilt
            alive = alive.copy()
            v = int(rng.integers(0, n))
            alive[v] = not alive[v]  # one death or revival

    @pytest.mark.parametrize("seed", range(4))
    def test_full_time_parity(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 50))
        cs = random_cluster_set(rng, n, int(rng.integers(1, 6)))
        arrays = StateArrays(n, 0)
        ref = FullTimeLoop(cs)
        soa = FullTimeActivator(cs, arrays)
        for _ in range(10):
            alive = rng.random(n) > 0.3
            assert np.array_equal(soa.active_mask(alive), ref.active_mask(alive))
            assert np.array_equal(
                soa.active_sensor_per_cluster(alive),
                ref.active_sensor_per_cluster(alive),
            )
            assert np.array_equal(soa.covered_mask(alive), ref.covered_mask(alive))
        assert soa.rotate(rng.random(n) > 0.5).shape == (0, 2)

    def test_all_dead_cluster_keeps_pointer(self):
        cs = ClusterSet([Cluster(0, np.array([0, 1, 2]))], 3)
        arrays = StateArrays(3, 0)
        soa = RoundRobinActivator(cs, arrays)
        ref = RoundRobinLoop(cs)
        alive = np.ones(3, dtype=bool)
        soa.rotate(alive)
        ref.rotate(alive)
        dead = np.zeros(3, dtype=bool)
        assert np.array_equal(soa.rotate(dead), ref.rotate(dead))
        assert np.array_equal(arrays.ptr, ref._ptr)

    def test_wrap_activator_dispatch(self):
        """Activation dispatch by name: the registry builds the array
        classes over the shared StateArrays directly, and a plugin class
        (even a subclass of a built-in) is built and kept as itself."""
        cs = ClusterSet([Cluster(0, np.array([0, 1]))], 2)
        arrays = StateArrays(2, 0)
        for name, cls in (
            ("round_robin", RoundRobinActivator),
            ("full_time", FullTimeActivator),
        ):
            built = ACTIVATORS.build(name, cluster_set=cs, arrays=arrays)
            assert type(built) is cls
            assert built.a is arrays

        class PluginActivator(RoundRobinActivator):
            pass

        ACTIVATORS.register(
            "plugin-round-robin",
            lambda cluster_set, arrays: PluginActivator(cluster_set, arrays),
        )
        try:
            world = World(
                SimulationConfig(**{**SMALL_CONFIG, "activation": "plugin-round-robin"})
            )
            assert type(world.state.activator) is PluginActivator
            assert world.state.activator.a is world.state.arrays
        finally:
            ACTIVATORS.unregister("plugin-round-robin")

    def test_rotation_table_matches_scan(self):
        """Every entry of the table, not just the ones a pointer walk
        visits: the duty holder and the next pointer from each start
        slot equal the per-cluster scan's."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(4, 40))
            cs = random_cluster_set(rng, n, int(rng.integers(1, 6)))
            arrays = StateArrays(n, 0)
            pack_clusters(cs, arrays)
            ref = RoundRobinLoop(cs)
            alive = rng.random(n) > 0.4
            table = rotation_table(arrays.members, alive, arrays.cluster_index)
            assert table.cur.shape == table.nxt.shape == arrays.members.shape
            for c in cs:
                for start in range(c.size):
                    slot = ref._first_alive_from(c.cluster_id, start, alive)
                    if slot is None:
                        assert table.cur[c.cluster_id, start] == -1
                        continue
                    after = ref._first_alive_from(c.cluster_id, (slot + 1) % c.size, alive)
                    assert table.cur[c.cluster_id, start] == c.members[slot]
                    assert table.nxt[c.cluster_id, start] == after
                hands = np.count_nonzero(alive[c.members]) >= 2
                assert (c.cluster_id in table.hand) == hands


class TestErcScanParity:
    @pytest.mark.parametrize("erp", [0.0, 0.3, 0.5, 1.0])
    def test_random_masks(self, erp):
        rng = np.random.default_rng(int(erp * 10) + 1)
        for _ in range(25):
            n = int(rng.integers(3, 50))
            cs = random_cluster_set(rng, n, int(rng.integers(1, 7)))
            below = rng.random(n) > 0.5
            listed = (rng.random(n) > 0.7) & below
            want = nodes_to_release(erp, cs, below, listed)
            arrays = StateArrays(n, 0)
            pack_clusters(cs, arrays)
            got = erc_release(
                erc_gate_constants(cs.membership, arrays.sizes, erp),
                below,
                listed,
                arrays.release_scratch,
            )
            assert got == want

    def test_zero_cluster_epoch(self):
        cs = ClusterSet([], 5)
        below = np.array([True, False, True, False, False])
        listed = np.array([True, False, False, False, False])
        want = nodes_to_release(0.5, cs, below, listed)
        arrays = StateArrays(5, 0)
        pack_clusters(cs, arrays)
        got = erc_release(
            erc_gate_constants(cs.membership, arrays.sizes, 0.5),
            below,
            listed,
            arrays.release_scratch,
        )
        assert got == want == [2]

    def test_applicability_gate(self):
        """The array scan gates every ERC policy: built-in, adaptive, a
        subclass that defines its own ``nodes_to_release`` (no longer a
        hook) and a bare object carrying only ``erp``.  Each releases
        what the per-cluster oracle releases at the policy's ``erp``."""

        class CustomPolicy(EnergyRequestController):
            def nodes_to_release(self, cluster_set, below, listed):
                return []

        class BarePolicy:
            erp = 0.3

        policies = [
            EnergyRequestController(0.5),
            AdaptiveEnergyRequestController(),
            CustomPolicy(0.5),
            BarePolicy(),
        ]
        rng = np.random.default_rng(11)
        for policy in policies:
            world = World(SimulationConfig(**SMALL_CONFIG))
            s = world.state
            world.gate.erc = policy
            below = rng.random(len(s.bank.levels_j)) > 0.5
            s.bank.levels_j[:] = s.bank.capacity_j
            s.bank.levels_j[below] = 0.5 * s.bank.threshold_j
            listed = s.requested.copy()
            want = nodes_to_release(policy.erp, s.cluster_set, below, listed)
            assert want  # the draw exercises the gate
            assert world.gate.check()
            assert np.flatnonzero(s.requested & ~listed).tolist() == want


def random_forest(rng, n):
    """A random parent array over ``n`` sensors plus the base at ``n``.

    Sensors attach to the base or to an earlier sensor in a random
    order; about one in eight has no next hop, which cuts it and its
    whole subtree off from the base.  Returns ``(parent, reachable)``.
    """
    parent = np.full(n + 1, -1, dtype=np.int64)
    order = rng.permutation(n)
    reachable = np.zeros(n, dtype=bool)
    for i, v in enumerate(order):
        if rng.random() < 0.125:
            continue
        p = n if i == 0 or rng.random() < 0.2 else int(order[rng.integers(0, i)])
        parent[v] = p
        reachable[v] = p == n or reachable[p]
    return parent, reachable


def walk_matrix(parent, n):
    """``A[v, u] = 1`` iff ``relay_walk`` credits origin ``u`` to ``v``,
    so ``A @ origins`` is the walk's counts for any origin mask."""
    out = np.zeros((n, n), dtype=np.float64)
    for u in range(n):
        unit = np.zeros(n, dtype=bool)
        unit[u] = True
        out[:, u] = walk_counts(unit, parent)
    return out


class TestRelayParity:
    """Ancestor-row strict-subtree (relay) counts == the per-origin
    root-path walk."""

    @pytest.mark.parametrize("seed", range(5))
    def test_subtree_counts_match_walk(self, seed):
        from repro.geometry.field import Field
        from repro.network.routing import RoutingTree
        from repro.network.topology import Topology

        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 80))
        fld = Field(50.0)
        pos = fld.deploy_uniform(n, rng)
        topo = Topology(pos, 18.0, base_station=fld.base_station)
        tree = RoutingTree(topo)
        ancestors = ancestor_table(tree.parent, tree.base, n)
        for _ in range(5):
            origins = np.zeros(n, dtype=bool)
            origins[rng.random(n) > 0.5] = True
            origins &= np.isfinite(tree.dist[:n])
            cnt = relay_counts(origins, ancestors)
            assert cnt.dtype == np.int64
            assert np.array_equal(cnt, walk_relay_counts(origins, tree.parent))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_forests_with_disconnected_sensors(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 120))
        parent, reachable = random_forest(rng, n)
        ancestors = ancestor_table(parent, n, n)
        assert np.all(ancestors[~reachable] == n)  # unrouted rows are pad only
        for _ in range(10):
            origins = rng.random(n) > 0.4
            routed = origins & reachable
            want = walk_relay_counts(routed, parent)
            assert np.array_equal(relay_counts(routed, ancestors), want)
            # An unrouted origin counts nowhere, even where its cut-off
            # subtree still has parents to walk.
            assert np.array_equal(relay_counts(origins, ancestors), want)

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_trees(self, n):
        for parent in ([-1] * (n + 1), [n] * n + [-1]):
            parent = np.array(parent, dtype=np.int64)
            ancestors = ancestor_table(parent, n, n)
            for bits in range(2**n):
                origins = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
                origins &= parent[:n] >= 0
                got = relay_counts(origins, ancestors)
                assert got.shape == (n,)
                assert np.array_equal(got, walk_relay_counts(origins, parent))

    def test_unrouted_sensors_relay_and_count_nothing(self):
        """No sensor has a route: every row is pad, every count 0."""
        n = 12
        parent = np.full(n + 1, -1, dtype=np.int64)
        parent[1:n] = np.arange(n - 1)  # a chain cut off at sensor 0
        ancestors = ancestor_table(parent, n, n)
        assert np.all(ancestors == n)
        for origins in (np.zeros(n, dtype=bool), np.ones(n, dtype=bool)):
            assert np.array_equal(relay_counts(origins, ancestors), np.zeros(n, np.int64))

    def test_depth_18_chain(self):
        """A chain of 18 sensors under the base: the deepest sensor has
        17 sensor ancestors, and sensor ``v`` relays every origin below
        it."""
        n = 18
        parent = np.append(np.arange(-1, n - 1), -1)
        parent[0] = n  # the head of the chain hops to the base
        ancestors = ancestor_table(parent, n, n)
        assert ancestors.shape == (n, n - 1)
        assert ancestors[n - 1].tolist() == list(range(n - 2, -1, -1))
        rng = np.random.default_rng(18)
        masks = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]
        masks += [rng.random(n) < 0.5 for _ in range(50)]
        for origins in masks:
            got = relay_counts(origins, ancestors)
            assert np.array_equal(got, walk_relay_counts(origins, parent))
            below = np.cumsum(origins[::-1])[::-1]  # origins at or below v
            assert np.array_equal(got, below - origins)

    @pytest.mark.parametrize("seed", range(4))
    def test_empty_and_full_origin_sets(self, seed):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(2, 120))
        parent, reachable = random_forest(rng, n)
        ancestors = ancestor_table(parent, n, n)
        assert np.array_equal(
            relay_counts(np.zeros(n, dtype=bool), ancestors), np.zeros(n, np.int64)
        )
        full = np.ones(n, dtype=bool)
        assert np.array_equal(
            relay_counts(full, ancestors), walk_relay_counts(reachable, parent)
        )

    def test_2000_masks_at_paper_scale(self):
        from repro.sim.config import SimulationConfig

        world = World(SimulationConfig.experiment())
        routing = world.state.routing
        n = world.cfg.n_sensors
        assert n == 500
        connected = np.isfinite(routing.dist[:n])
        walk = walk_matrix(routing.parent, n)
        ancestors = world.state.network.ancestors
        rng = np.random.default_rng(500)
        masks = (rng.random((2000, n)) < rng.random((2000, 1))) & connected
        want = (masks.astype(np.float64) @ walk.T).astype(np.int64)
        for origins, ref in zip(masks, want):
            assert np.array_equal(relay_counts(origins, ancestors), ref - origins)


def run_snapshotted(reference, checkpoints, **overrides):
    """Snapshots of one run at ``checkpoints``, on the array tick path
    or (``reference=True``) on the reference tick paths."""
    cfg = SimulationConfig(**{**SMALL_CONFIG, **overrides})
    with reference_tick_paths() if reference else contextlib.nullcontext() as calls:
        world = World(cfg)
        snaps = []
        for t in checkpoints:
            world.state.sim.run_until(t)
            world.energy.advance()
            snaps.append(snapshot_arrays(world.state))
    loops = {"round_robin": RoundRobinLoop, "full_time": FullTimeLoop}
    if reference:
        # The oracle loops really ran: the registry built them and the
        # gate scanned through nodes_to_release whenever it checked.
        assert type(world.state.activator) is loops[cfg.activation]
        assert calls[cfg.activation] >= 1
        if checkpoints[-1] >= cfg.tick_s:  # the gate checked at least once
            assert calls["erc"] >= 1
    else:
        assert type(world.state.activator) is not loops[cfg.activation]
    return snaps


class TestEngineEquivalence:
    @staticmethod
    def assert_snaps_equal(a, b, context):
        for snap_a, snap_b in zip(a, b):
            assert set(snap_a) == set(snap_b)
            for key in snap_a:
                assert np.array_equal(snap_a[key], snap_b[key]), (
                    f"{key} diverged between the reference and array tick "
                    f"paths ({context})"
                )

    @pytest.mark.parametrize("activation", ["round_robin", "full_time"])
    def test_whole_run_snapshots_identical(self, activation):
        checkpoints = [3600.0, 3 * 3600.0, 6 * 3600.0]
        ref = run_snapshotted(True, checkpoints, activation=activation)
        soa = run_snapshotted(False, checkpoints, activation=activation)
        self.assert_snaps_equal(ref, soa, activation)

    @given(
        seed=st.integers(0, 2**31 - 1),
        n_sensors=st.integers(8, 40),
        ticks=st.lists(st.integers(1, 9), min_size=1, max_size=6),
        activation=st.sampled_from(["round_robin", "full_time"]),
        erp=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @settings(max_examples=10, deadline=None)
    def test_random_tick_sequences_identical(
        self, seed, n_sensors, ticks, activation, erp
    ):
        # Random checkpoint times (multiples of a half-tick, so events
        # and checkpoint boundaries interleave in interesting ways).
        times, t = [], 0.0
        for step in ticks:
            t += step * 300.0
            times.append(t)
        overrides = dict(
            seed=seed, n_sensors=n_sensors, activation=activation, erp=erp,
            sim_time_s=times[-1],
        )
        ref = run_snapshotted(True, times, **overrides)
        soa = run_snapshotted(False, times, **overrides)
        self.assert_snaps_equal(ref, soa, f"seed={seed}")

    def test_summaries_identical_with_leakage_and_adaptive(self):
        cfg = SimulationConfig(
            **{
                **SMALL_CONFIG,
                "self_discharge_fraction_per_day": 0.05,
                "adaptive_erp": True,
            }
        )
        with reference_tick_paths() as calls:
            ref = run_simulation(cfg).as_dict()
        assert calls["round_robin"] >= 1 and calls["erc"] >= 1
        soa = run_simulation(cfg).as_dict()
        assert ref == soa


def run_strict(reference, cfg):
    """One run under strict monitors on the array or reference tick
    paths: (summary dict, final snapshot, violations)."""
    from repro.obs.monitors import MonitorSet

    monitors = MonitorSet(strict=True)
    with reference_tick_paths() if reference else contextlib.nullcontext():
        world = World(cfg, monitors=monitors)
        summary = world.run()
    return summary.as_dict(), snapshot_arrays(world.state), monitors.violations


#: Edge-of-domain overrides of SMALL_CONFIG, by test id.
DEGENERATE_INPUTS = {
    "no-sensors": {"n_sensors": 0},
    "one-sensor": {"n_sensors": 1},
    "no-targets": {"n_targets": 0},
    "no-rvs": {"n_rvs": 0},
    "all-disconnected": {"comm_range_m": 0.001},
    "erp-1": {"erp": 1.0},
    "all-depleted": {"initial_charge_range": (0.0, 0.0)},
}


class TestDegenerateInputs:
    """Edge-of-domain configs run a day under strict monitors, and the
    array tick path matches the reference paths bit for bit."""

    @pytest.mark.parametrize(
        "overrides", list(DEGENERATE_INPUTS.values()), ids=list(DEGENERATE_INPUTS)
    )
    def test_one_day_strict_and_reference_identical(self, overrides):
        from repro.sim.config import DAY_S

        cfg = SimulationConfig(**{**SMALL_CONFIG, "sim_time_s": DAY_S, **overrides})
        ref, ref_snap, ref_violations = run_strict(True, cfg)
        got, snap, violations = run_strict(False, cfg)
        assert violations == [] and ref_violations == []
        assert got == ref
        TestEngineEquivalence.assert_snaps_equal([ref_snap], [snap], str(overrides))


class TestAllocationDiscipline:
    def test_buffers_reused_across_ticks(self):
        """Steady-state ticks reuse the preallocated buffers: after the
        warm-up tick, every array the SoA block holds is the same object
        until the next cluster epoch can resize the member matrix."""
        cfg = SimulationConfig(**{**SMALL_CONFIG, "target_period_s": 10 * 3600.0})
        world = World(cfg)
        a = world.state.arrays
        world.state.sim.run_until(2 * cfg.tick_s)  # warm-up: lazy scratch exists now
        held = {
            name: value
            for name, value in vars(a).items()
            if isinstance(value, np.ndarray) or name == "cluster_index"
        }
        assert {"drain_scratch", "below_scratch", "release_scratch", "members"} <= set(held)
        world.state.sim.run_until(9 * 3600.0)  # many ticks, no relocation epoch
        moved = [name for name, value in held.items() if getattr(a, name) is not value]
        assert moved == [], f"SoA buffers reallocated during steady-state ticks: {moved}"

    def test_state_arrays_alias_canonical_buffers(self):
        world = World(SimulationConfig(**SMALL_CONFIG))
        s = world.state
        assert s.arrays is not None
        assert s.arrays.levels_j is s.bank.levels_j
        assert s.arrays.positions is s.sensor_pos
        assert s.arrays.requested is s.requested
        assert s.arrays.cluster_id is s.cluster_set.membership
        assert s.arrays.rv_returning is world.fleet.returning
        world.state.sim.run_until(3600.0)
        # Aliases must survive recomputes and rebuilds within the epoch.
        assert s.arrays.rates_w is world.energy.rates
        assert s.arrays.levels_j is s.bank.levels_j

    def test_rv_block_write_through(self):
        world = World(SimulationConfig(**SMALL_CONFIG))
        world.state.sim.run_until(6 * 3600.0)
        world.energy.advance()
        a = world.state.arrays
        for rv in world.fleet.rvs:
            assert np.array_equal(a.rv_pos[rv.rv_id], rv.position)
            assert a.rv_level_j[rv.rv_id] == rv.battery.level_j
            assert a.rv_busy[rv.rv_id] == rv.busy


class TestProvenance:
    def test_manifest_writes_no_engine_block(self, tmp_path):
        from repro.obs.manifest import RunManifest
        from repro.sim.runner import run_with_telemetry

        cfg = SimulationConfig(**{**SMALL_CONFIG, "sim_time_s": 3600.0})
        _, manifest = run_with_telemetry(cfg, tmp_path)
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert "engine" not in on_disk
        # And it round-trips through the JSON on disk.
        assert RunManifest.load(tmp_path) == manifest

    def test_manifest_from_dict_tolerates_missing_engine(self):
        from repro.obs.manifest import RunManifest

        m = RunManifest.create(config={"n_sensors": 1}, seed=0, wall_time_s=0.0)
        assert RunManifest.from_dict(m.as_dict()) == m

    def test_manifest_with_legacy_engine_block_loads(self, tmp_path):
        """Manifests written before the batched engine was removed carry
        an ``engine`` block; they still load, and drift still reads them."""
        from repro.obs.drift import load_metrics
        from repro.obs.manifest import RunManifest

        m = RunManifest.create(
            config={"n_sensors": 1}, seed=3, wall_time_s=0.5, summary={"coverage": 1.0}
        )
        data = {**m.as_dict(), "engine": {"batch": False, "batch_debug": False}}
        (tmp_path / "manifest.json").write_text(json.dumps(data))
        assert RunManifest.load(tmp_path) == m
        assert load_metrics(tmp_path) == {"summary.coverage": 1.0}

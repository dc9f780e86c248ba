"""Checkpoint capture/restore and deterministic time-travel replay.

This module owns the simulation-side schema of the flight recorder
(:mod:`repro.obs.blackbox`): what a full-state checkpoint contains, how
a fresh :class:`~repro.sim.world.World` is rewound onto one, and how a
postmortem bundle is re-executed and diffed against its recorded digest
rows.

Checkpoint-restore contract
---------------------------

A checkpoint is only captured at a *safe point*: immediately after a
tick's digest row, when the RV fleet is idle (no sortie legs or depot
returns in flight — those live as closures in the event heap and cannot
be serialized) and the event queue holds nothing but the three periodic
world events.  At such a point the entire dynamic state is:

* the canonical flat arrays (battery levels, request flags) — written
  back in place by :func:`repro.sim.serialization.restore_arrays`, the
  documented inverse of ``snapshot_arrays`` for those buffers;
* the cluster epoch (membership vector + rotation pointers), target
  process (positions, epoch, waypoints), ERC controller, request
  backlog, per-RV books, energy accounting accumulators, the RNG's
  ``bit_generator.state``, and the pending periodic events.

Everything else on the state is either derived deterministically from
the config (positions, topology, routing) and re-derived by building a
fresh ``World(config)``, or observability-only (metrics, the event
log) and guaranteed never to touch the trajectory.

Replay determinism
------------------

``restore_world`` rebuilds a world from the same config — re-consuming
the construction RNG draws — then overwrites the RNG state, arrays,
components and event queue from the checkpoint.  From that point the
discrete-event engine is deterministic (time, priority, insertion
order), so re-execution reproduces the original run bit-for-bit; every
replayed digest row must equal the recorded one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..core.clustering import Cluster, ClusterSet
from ..core.erc import AdaptiveEnergyRequestController, EnergyRequestController
from ..core.requests import RechargeRequest
from ..geometry.coverage import detection_matrix
from ..mobility.targets import TargetProcess
from ..mobility.vehicles import RVStats
from ..mobility.waypoint import RandomWaypointProcess
from ..obs.blackbox import BlackBoxRecorder, PostmortemBundle, digest_row, load_bundle
from ..obs.monitors import MonitorSet
from ..registry import ACTIVATORS
from ..utils.tables import format_table
from .components.state import PRIO_DISPATCH, PRIO_RELOCATE, PRIO_TICK
from .serialization import config_from_dict, restore_arrays, snapshot_arrays
from .soa import FullTimeActivator, RoundRobinActivator, pack_clusters

__all__ = [
    "ReplayResult",
    "abort_record",
    "capture_checkpoint",
    "format_replay",
    "replay_bundle",
    "restore_world",
]

#: The three periodic world events — the only callbacks a checkpointable
#: queue may hold (RV sortie legs are lambdas and cannot be captured).
_PERIODIC_HANDLERS = {
    "_on_tick": PRIO_TICK,
    "_on_relocate": PRIO_RELOCATE,
    "_on_dispatch_round": PRIO_DISPATCH,
}

#: Component types whose internal state the checkpoint schema covers.
#: Plugins outside these fall back to genesis-only replay (the recorder
#: simply skips the checkpoint; digest rows still flow).
_ERC_TYPES = (EnergyRequestController, AdaptiveEnergyRequestController)
_TARGET_TYPES = (TargetProcess, RandomWaypointProcess)
_ACTIVATOR_TYPES = (RoundRobinActivator, FullTimeActivator)


# ---------------------------------------------------------------------------
# capture
# ---------------------------------------------------------------------------


def capture_checkpoint(world, seq: int) -> Optional[Dict[str, Any]]:
    """Capture a full-state checkpoint of ``world``, or None when the
    current point is not safe (fleet busy, non-periodic events queued,
    or a plugin component outside the checkpoint schema).

    ``seq`` is the digest row the checkpoint follows: the captured state
    is exactly the state digested by that row.
    """
    s = world.state
    fleet = world.fleet
    if any(rv.busy for rv in fleet.rvs) or bool(np.any(fleet.returning)):
        return None
    pending = []
    for t, priority, cb in s.sim.pending_events():
        fn = getattr(cb, "__func__", None)
        if (
            fn is None
            or getattr(cb, "__self__", None) is not world
            or fn.__name__ not in _PERIODIC_HANDLERS
        ):
            return None
        pending.append({"name": fn.__name__, "time": float(t), "priority": int(priority)})
    erc = world.gate.erc
    if type(erc) not in _ERC_TYPES:
        return None
    if type(s.targets) not in _TARGET_TYPES:
        return None
    if type(s.activator) not in _ACTIVATOR_TYPES:
        return None

    backlog = list(s.requests)
    arrays: Dict[str, np.ndarray] = {
        "levels_j": s.bank.levels_j.copy(),
        "requested": s.requested.copy(),
        "membership": s.cluster_set.membership.copy(),
        "target_pos": s.targets.positions.copy(),
        "rv_pos": np.vstack([rv.position for rv in fleet.rvs])
        if fleet.rvs else np.empty((0, 2)),
        "rv_level_j": np.array([rv.battery.level_j for rv in fleet.rvs]),
        "rv_stats": np.array(
            [
                [
                    rv.stats.distance_m,
                    rv.stats.moving_energy_j,
                    rv.stats.delivered_energy_j,
                    rv.stats.nodes_recharged,
                    rv.stats.sorties,
                    rv.stats.depot_visits,
                ]
                for rv in fleet.rvs
            ],
            dtype=np.float64,
        ).reshape(len(fleet.rvs), 6),
        "backlog_nodes": np.array([r.node_id for r in backlog], dtype=np.int64),
        "backlog_demands": np.array([r.demand_j for r in backlog], dtype=np.float64),
        "backlog_clusters": np.array([r.cluster_id for r in backlog], dtype=np.int64),
        "backlog_release_s": np.array(
            [r.release_time_s for r in backlog], dtype=np.float64
        ),
        "ptr": s.arrays.ptr.copy(),
    }
    waypoints = getattr(s.targets, "_waypoints", None)
    if waypoints is not None:
        arrays["target_waypoints"] = waypoints.copy()

    erc_state: Dict[str, Any] = {"erp": float(erc.erp)}
    if isinstance(erc, AdaptiveEnergyRequestController):
        erc_state.update(
            adaptive=True,
            deaths_since_adjust=int(erc._deaths_since_adjust),
            last_adjust_s=float(erc._last_adjust_s),
            history=[[float(t), float(e)] for t, e in erc.history],
        )
    scalars = {
        "seq": int(seq),
        "t": float(s.now),
        "rng_state": s.rng.bit_generator.state,
        "events_fired": int(s.sim.events_fired),
        "pending": pending,
        "n_clusters": len(s.cluster_set.clusters),
        "target_epoch": int(s.targets.epoch),
        "erc": erc_state,
        "energy": {
            "last_t": float(world.energy._last_t),
            "breakdown_j": dict(world.energy.breakdown_j),
        },
    }
    return {"seq": int(seq), "t": float(s.now), "arrays": arrays, "scalars": scalars}


def abort_record(world, error: BaseException) -> Dict[str, Any]:
    """Append the ``abort`` digest row of a run that died with
    ``error`` to its recorder, and return it: state and RNG digests
    taken where the exception was caught, so a replay that re-raises
    at the identical point produces an identical row."""
    s = world.state
    return world.blackbox.record(
        "abort", s.now, snapshot_arrays(s), s.rng.bit_generator.state,
        error=f"{type(error).__name__}: {error}",
    )


# ---------------------------------------------------------------------------
# restore
# ---------------------------------------------------------------------------


def restore_world(
    config,
    checkpoint: Optional[Dict[str, Any]] = None,
    *,
    monitors=None,
    blackbox=None,
):
    """A :class:`~repro.sim.world.World` rewound onto ``checkpoint``.

    With ``checkpoint=None`` this is genesis: a fresh world at t=0
    (always a valid replay starting point).  Otherwise the fresh world's
    construction re-derives everything config-determined (deployment,
    topology, routing — consuming the same RNG draws the original run
    did), and the checkpoint then overwrites the dynamic state: RNG,
    canonical arrays, cluster epoch, targets, ERC, backlog, RVs, energy
    accumulators, and the event queue.

    Metrics and the event log start fresh — they never influence the
    trajectory, so replayed state digests are unaffected; only
    observability output (latencies, counters) differs from the
    original run's.
    """
    from .world import World

    world = World(config, monitors=monitors, blackbox=blackbox)
    if checkpoint is None:
        return world
    s = world.state
    arrays = checkpoint["arrays"]
    scalars = checkpoint["scalars"]

    s.rng.bit_generator.state = scalars["rng_state"]
    s.sim.reset(scalars["t"], events_fired=scalars["events_fired"])
    restore_arrays(s, {
        "levels_j": arrays["levels_j"],
        "requested": arrays["requested"],
        "time_s": scalars["t"],
    })

    # Targets first: the cluster epoch below is a function of them.
    s.targets.positions = np.array(arrays["target_pos"], dtype=np.float64)
    s.targets.epoch = int(scalars["target_epoch"])
    if "target_waypoints" in arrays and hasattr(s.targets, "_waypoints"):
        s.targets._waypoints = np.array(arrays["target_waypoints"], dtype=np.float64)

    # Cluster epoch from the STORED membership — deliberately not
    # re-clustered: the live clusters were formed over the sensors alive
    # at the last relocation, and deaths since then would change a fresh
    # clustering's answer.
    membership = np.asarray(arrays["membership"], dtype=np.int64)
    clusters = [
        Cluster(cid, np.flatnonzero(membership == cid))
        for cid in range(int(scalars["n_clusters"]))
    ]
    s.cluster_set = ClusterSet(clusters, config.n_sensors)
    det = detection_matrix(s.sensor_pos, s.targets.positions, config.sensing_range_m)
    s.coverable = det.any(axis=0)
    pack_clusters(s.cluster_set, s.arrays)
    s.activator = ACTIVATORS.build(
        config.activation, cluster_set=s.cluster_set, arrays=s.arrays
    )
    if "ptr" in arrays:
        s.arrays.ptr[:] = np.asarray(arrays["ptr"], dtype=np.int64)

    # Request backlog, in its recorded insertion order (scheduler input
    # order is part of the trajectory).
    s.requests.clear()
    for node, demand, cid, released in zip(
        arrays["backlog_nodes"],
        arrays["backlog_demands"],
        arrays["backlog_clusters"],
        arrays["backlog_release_s"],
    ):
        s.requests.add(RechargeRequest(
            node_id=int(node),
            position=s.sensor_pos[int(node)],
            demand_j=float(demand),
            cluster_id=int(cid),
            release_time_s=float(released),
        ))

    # The fleet is idle at every safe point: books and batteries are the
    # only per-RV state.
    for rv in world.fleet.rvs:
        i = rv.rv_id
        rv.position = np.array(arrays["rv_pos"][i], dtype=np.float64)
        rv.battery.level_j = float(arrays["rv_level_j"][i])
        row = arrays["rv_stats"][i]
        rv.stats = RVStats(
            distance_m=float(row[0]),
            moving_energy_j=float(row[1]),
            delivered_energy_j=float(row[2]),
            nodes_recharged=int(row[3]),
            sorties=int(row[4]),
            depot_visits=int(row[5]),
        )
        rv.busy = False
        rv.itinerary = []
        world.fleet._sync_rv(rv)
    world.fleet.returning[:] = False

    erc = world.gate.erc
    erc_state = scalars["erc"]
    erc.erp = float(erc_state["erp"])
    if isinstance(erc, AdaptiveEnergyRequestController) and erc_state.get("adaptive"):
        erc._deaths_since_adjust = int(erc_state["deaths_since_adjust"])
        erc._last_adjust_s = float(erc_state["last_adjust_s"])
        erc.history = [(float(t), float(e)) for t, e in erc_state["history"]]

    world.energy._last_t = float(scalars["energy"]["last_t"])
    world.energy.breakdown_j = {
        k: float(v) for k, v in scalars["energy"]["breakdown_j"].items()
    }
    # Re-price every sensor: recompute is a pure function of the
    # restored state, so the restored rates match the original run's
    # exactly.
    world.energy.recompute()

    # Rebuild the event queue in recorded firing order; (time, priority)
    # pairs are unique across the three periodics, so relative insertion
    # order is reproduced.
    handlers = {
        "_on_tick": world._on_tick,
        "_on_relocate": world._on_relocate,
        "_on_dispatch_round": world._on_dispatch_round,
    }
    for ev in scalars["pending"]:
        s.sim.schedule(ev["time"], handlers[ev["name"]], priority=ev["priority"])

    if world.blackbox is not None:
        world.blackbox.seq = int(scalars["seq"])
    world._record_metrics()
    return world


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


@dataclass
class ReplayResult:
    """Outcome of one bundle replay.

    ``ok`` is True when every compared digest row (state, per-field
    and RNG digests) matched bit-for-bit; ``divergences`` lists each
    mismatch as ``{"seq", "field", "expected", "got"}``.
    """

    bundle_path: Path
    start_seq: int
    target_seq: int
    compared: int = 0
    divergences: List[Dict[str, Any]] = field(default_factory=list)
    error: Optional[str] = None
    recorded_error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.divergences


def _compare(
    expected: Dict[str, Any],
    got: Dict[str, Any],
    divergences: List[Dict[str, Any]],
) -> None:
    """Diff two digest rows: the state digest, the per-field digests
    both rows carry (a full row against a plain one still checks the
    ``state`` digest, which covers every field) and the RNG digest."""
    seq = expected["seq"]
    exp_f = expected.get("fields") or {}
    got_f = got.get("fields") or {}
    pairs = [("state", expected.get("state"), got.get("state"))]
    pairs += [(k, exp_f[k], got_f[k]) for k in sorted(set(exp_f) & set(got_f))]
    pairs.append(("rng", expected.get("rng"), got.get("rng")))
    for name, want, have in pairs:
        if want != have:
            divergences.append(
                {"seq": seq, "field": name, "expected": want, "got": have}
            )


def replay_bundle(
    bundle: Union[str, Path, PostmortemBundle],
    to_tick: Optional[int] = None,
) -> ReplayResult:
    """Restore a bundle's nearest checkpoint, re-execute to ``to_tick``
    (a digest row's ``seq``; the last recorded one by default), and
    diff every replayed digest row against the bundle's.

    If the bundle records an abort (monitor violation or crash),
    replaying to its sequence number re-executes into the failure and
    digests the state at the identical point — reproducing the incident
    bit-for-bit.
    """
    if not isinstance(bundle, PostmortemBundle):
        bundle = load_bundle(bundle)
    if bundle.config is None:
        raise ValueError(f"bundle {bundle.path} has no config.json; cannot replay")
    expected = {int(r["seq"]): r for r in bundle.digests}
    if not expected:
        raise ValueError(f"bundle {bundle.path} has no digest rows")
    target = int(to_tick) if to_tick is not None else max(expected)

    # The newest checkpoint at or before the target; genesis otherwise.
    checkpoint = None
    for ck in bundle.checkpoints:
        if ck["seq"] <= target:
            checkpoint = ck
    start_seq = int(checkpoint["seq"]) if checkpoint is not None else 0

    config = config_from_dict(bundle.config)
    mon_cfg = bundle.manifest.get("monitors") or {}
    monitors = None
    if mon_cfg.get("strict"):
        # Arm the same tripwires the original run had — tolerances
        # from the bundle, not the current environment — so a
        # recorded violation re-fires at the identical point.
        monitors = MonitorSet(strict=True)
        if "energy_atol_j" in mon_cfg:
            monitors.ENERGY_ATOL_J = float(mon_cfg["energy_atol_j"])
        if "energy_rtol" in mon_cfg:
            monitors.ENERGY_RTOL = float(mon_cfg["energy_rtol"])
        if "plan_atol_j" in mon_cfg:
            monitors.PLAN_ATOL_J = float(mon_cfg["plan_atol_j"])
    recorder = BlackBoxRecorder(checkpoint_every=0)
    world = restore_world(
        config, checkpoint, monitors=monitors, blackbox=recorder
    )
    result = ReplayResult(
        bundle_path=bundle.path,
        start_seq=start_seq,
        target_seq=target,
        recorded_error=bundle.manifest.get("error"),
    )

    # The restored state must digest identically to the row the
    # checkpoint followed — divergence here means a restore bug, and
    # any drift further out would be unattributable.
    if start_seq in expected:
        s = world.state
        restored = digest_row(
            start_seq, "restore", s.now, snapshot_arrays(s),
            s.rng.bit_generator.state, full=True,
        )
        _compare(expected[start_seq], restored, result.divergences)
        result.compared += 1

    horizon = config.sim_time_s
    while recorder.seq < target:
        try:
            if not world.state.sim.step():
                break
        except Exception as exc:  # includes InvariantViolation
            result.error = abort_record(world, exc)["error"]
            break
        if world.state.now > horizon:
            break

    replayed = {int(r["seq"]): r for r in recorder.log.digests}
    for seq in sorted(expected):
        if seq <= start_seq or seq > target:
            continue
        if seq not in replayed:
            result.divergences.append({
                "seq": seq,
                "field": "(row)",
                "expected": expected[seq].get("kind", "?"),
                "got": "missing — replay never reached this event",
            })
            continue
        _compare(expected[seq], replayed[seq], result.divergences)
        result.compared += 1
    return result


def format_replay(result: ReplayResult) -> str:
    """Render a :class:`ReplayResult` for the CLI."""
    lines = [
        f"Replayed {result.bundle_path} from seq {result.start_seq} "
        f"to seq {result.target_seq} ({result.compared} digest row(s) compared)",
    ]
    if result.recorded_error:
        lines.append(f"recorded failure: {result.recorded_error}")
    if result.error:
        lines.append(f"replayed failure: {result.error}")
    blocks = ["\n".join(lines)]
    if result.divergences:
        rows = [
            [
                d["seq"],
                d["field"],
                (d["expected"] or "?")[:20],
                (d["got"] or "?")[:20],
            ]
            for d in result.divergences[:20]
        ]
        blocks.append(format_table(
            ["seq", "field", "expected", "got"],
            rows,
            title=f"STATE DIVERGENCE: {len(result.divergences)} mismatch(es)",
        ))
        blocks.append("replay DIVERGED from the recorded run")
    else:
        blocks.append(
            "replay is bit-identical to the recorded run "
            f"({result.compared} digest row(s), zero divergence)"
        )
    return "\n\n".join(blocks)

"""Batch-size scaling of the lockstep multi-world engine.

Measures wall-clock *per world* for one tick-only workload
(:func:`_tick_scaling_config`) run two ways: B worlds looped through
the serial SoA engine, and the same B worlds advanced in lockstep by
:class:`repro.sim.batch.BatchedEngine`.
Per-cell summaries are bit-identical by construction (covered by the
golden matrix and property tests); this benchmark pins the *reason* the
batch engine exists — the per-tick Python dispatch cost is paid once
per batch instead of once per world, so per-world cost falls as B
grows.

Records ``t_serial_<n>_s`` / ``t_batch_<n>_b<B>_s`` /
``speedup_<n>_b<B>x`` in ``BENCH_batch_scaling.json`` history and
asserts the batched engine beats the serial loop at every measured
B >= 8 (with a hard 3x floor at B = 64, n = 100 — the headline claim).
"""

import os
import time

from repro.sim.batch import BatchedEngine
from repro.sim.config import SimulationConfig
from repro.sim.world import World
from repro.utils.tables import format_table

from _shared import emit

#: (population, batch sizes) measured per experiment scale.  The smoke
#: matrix keeps CI fast; bench/paper also measure n=1000 and B=256.
_BATCH_MATRIX = {
    "smoke": {100: [1, 8, 64]},
    "bench": {100: [1, 8, 64, 256], 1000: [1, 8, 64, 256]},
    "paper": {100: [1, 8, 64, 256], 1000: [1, 8, 64, 256]},
}

#: Hard per-world speedup floor at B = 64, n = 100.
_B64_SPEEDUP_MIN = 3.0

#: Worlds timed for the serial per-world reference (per-world serial
#: cost does not depend on B, so a handful of worlds suffices).
_SERIAL_WORLDS = 4

#: Ticks per world.
_TICKS = 60


def _tick_scaling_config(n_sensors: int) -> SimulationConfig:
    """A tick-only workload at constant sensor density.

    Dispatch and relocation periods sit beyond the measured horizon, so
    the only events firing are ticks — the loop the batched engine
    vectorizes (battery advance, rotation, rate recompute, ERC gate).
    The field side grows as ``sqrt(n)`` to keep per-area density (and
    hence cluster sizes and relay depth) comparable across populations.
    """
    horizon = (_TICKS + 1) * 60.0
    return SimulationConfig(
        n_sensors=n_sensors,
        n_targets=max(4, n_sensors // 25),
        n_rvs=2,
        side_length_m=80.0 * (n_sensors / 50.0) ** 0.5,
        # ~10 expected neighbors per disk: comfortably above the
        # percolation threshold, so the multi-hop tree stays connected
        # (and relay repricing stays a real workload) at every n.
        comm_range_m=20.0,
        sensing_range_m=10.0,
        sim_time_s=horizon,
        tick_s=60.0,
        dispatch_period_s=10 * horizon,
        target_period_s=10 * horizon,
        battery_capacity_j=8100.0,
        initial_charge_range=(0.55, 0.9),
        seed=11,
    )


def _worlds(n_sensors: int, count: int, external_tick: bool) -> list:
    """``count`` same-shape worlds differing only by seed."""
    base = _tick_scaling_config(n_sensors)
    return [
        World(base.with_overrides(seed=11 + i), external_tick=external_tick)
        for i in range(count)
    ]


def _serial_per_world(n_sensors: int) -> float:
    """Wall seconds per world for the serial SoA loop (construction off
    the clock; the timed region is ``World.run`` end to end)."""
    worlds = _worlds(n_sensors, _SERIAL_WORLDS, external_tick=False)
    t0 = time.perf_counter()
    for w in worlds:
        w.run()
    return (time.perf_counter() - t0) / len(worlds)


def _batch_per_world(n_sensors: int, batch: int) -> float:
    """Wall seconds per world for one lockstep batch of size ``batch``
    (world and stack construction off the clock; the timed region is
    ``BatchedEngine.run`` end to end, finalization included)."""
    engine = BatchedEngine(
        worlds=_worlds(n_sensors, batch, external_tick=True), debug=False
    )
    t0 = time.perf_counter()
    engine.run()
    return (time.perf_counter() - t0) / batch


def bench_batch_scaling():
    """Per-world wall clock, serial SoA loop vs lockstep batches."""
    scale = os.environ.get("REPRO_SCALE", "bench")
    matrix = _BATCH_MATRIX.get(scale, _BATCH_MATRIX["bench"])
    _worlds(100, 2, external_tick=False)[0].run()  # warm caches off the clock
    rows, extra, losses = [], {}, {}
    for n, batches in matrix.items():
        t_serial = _serial_per_world(n)
        extra[f"t_serial_{n}_s"] = t_serial
        for B in batches:
            t_batch = _batch_per_world(n, B)
            speedup = t_serial / t_batch if t_batch > 0 else float("inf")
            extra[f"t_batch_{n}_b{B}_s"] = t_batch
            extra[f"speedup_{n}_b{B}x"] = speedup
            rows.append(
                [n, B, round(t_serial, 4), round(t_batch, 4), round(speedup, 2)]
            )
            if B >= 8 and speedup <= 1.0:
                losses[(n, B)] = round(speedup, 2)
    table = format_table(
        ["sensors", "batch", "serial s/world", "batched s/world", "speedup x"],
        rows,
        title=f"Batched engine scaling (per-world wall clock, scale={scale})",
    )
    emit("batch_scaling", table, extra=extra)
    assert not losses, (
        f"batched engine did not beat the serial SoA loop at {losses} "
        f"(per-world speedup <= 1x at B >= 8)"
    )
    headline = extra.get("speedup_100_b64x")
    assert headline is not None and headline >= _B64_SPEEDUP_MIN, (
        f"per-world speedup at B=64, n=100 is {headline:.2f}x "
        f"(< {_B64_SPEEDUP_MIN}x floor)"
    )

"""Wall-clock benchmark for the warm-pool sweep service layers.

Three executions of the same 8-cell ERP grid, each run twice:

* **cold** — ``warm=False``: a :class:`repro.experiments.pool.WarmPool`
  opened for the sweep and closed when it returns, so every sweep pays
  worker spawn plus the numpy/simulator import bill;
* **warm** — the persistent :class:`repro.experiments.pool.WarmPool`:
  the second sweep reuses live workers and pays neither;
* **warm + store** — the warm pool plus a content-addressed
  :class:`repro.experiments.store.ResultStore`: the second sweep is
  parent-side store hits and runs no simulation at all.

``REPRO_START_METHOD=spawn`` is forced for every pooled leg so the
per-worker import bill is real on any host (under ``fork`` the cold
path inherits the parent's imports nearly free, which would understate
what a long-lived service actually saves — and CI runs the spawn path
anyway).  Every leg must serialize byte-identically to the serial
executor; the recorded ``speedup_warm`` (cold second sweep vs warm
second sweep) must beat 1x and ``speedup_service`` (cold second sweep
vs warm+store second sweep) must beat 2x — store hits skip simulation
entirely, so this holds even on a 1-CPU runner.
"""

import json
import os
import shutil
import tempfile
import time

from repro.experiments import ExperimentScale
from repro.experiments.executor import map_cells
from repro.experiments.pool import shutdown_warm_pool
from repro.experiments.store import ResultStore
from repro.utils.tables import format_table

from _shared import emit

SCHEDULERS = ("greedy", "combined")
ERPS = (0.0, 0.6)
JOBS = 2
SCALE = ExperimentScale("service-bench", days=1.0, seeds=(1, 2))


def _dumps(cells):
    return json.dumps(
        {"|".join(map(str, k)): v.as_dict() for k, v in cells.items()},
        sort_keys=True,
    )


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def bench_sweep_service():
    # An ambient result store would collapse every leg into replays;
    # measure the real paths.
    store_env = os.environ.pop("REPRO_STORE", None)
    os.environ["REPRO_START_METHOD"] = "spawn"
    store_root = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        serial = map_cells(SCALE, SCHEDULERS, ERPS, jobs=1)
        golden = _dumps(serial)

        sweeps = {}
        shutdown_warm_pool()
        for leg, kwargs in (
            ("cold", {"warm": False}),
            ("warm", {"warm": True}),
            ("store", {"warm": True, "store": ResultStore(store_root)}),
        ):
            for attempt in ("first", "second"):
                t, cells = _timed(
                    lambda kw=kwargs: map_cells(
                        SCALE, SCHEDULERS, ERPS, jobs=JOBS, **kw
                    )
                )
                sweeps[f"{leg}_{attempt}"] = t
                assert _dumps(cells) == golden, f"{leg} {attempt} sweep drifted"
            shutdown_warm_pool()
    finally:
        shutdown_warm_pool()
        shutil.rmtree(store_root, ignore_errors=True)
        os.environ.pop("REPRO_START_METHOD", None)
        if store_env is not None:
            os.environ["REPRO_STORE"] = store_env

    speedup_warm = sweeps["cold_second"] / max(sweeps["warm_second"], 1e-9)
    speedup_service = sweeps["cold_second"] / max(sweeps["store_second"], 1e-9)
    n_cells = len(SCHEDULERS) * len(ERPS) * len(SCALE.seeds)
    cpus = os.cpu_count() or 1
    table = format_table(
        ["leg", "first sweep s", "second sweep s"],
        [
            ["cold pool per call", round(sweeps["cold_first"], 3),
             round(sweeps["cold_second"], 3)],
            ["warm pool", round(sweeps["warm_first"], 3),
             round(sweeps["warm_second"], 3)],
            ["warm pool + store", round(sweeps["store_first"], 3),
             round(sweeps["store_second"], 3)],
            ["speedup (warm vs cold)", "", round(speedup_warm, 2)],
            ["speedup (store vs cold)", "", round(speedup_service, 2)],
        ],
        title=(
            f"Sweep service wall clock ({n_cells} cells, jobs={JOBS}, "
            f"spawn start, {cpus} CPUs)"
        ),
    )
    emit(
        "sweep_service",
        table,
        extra={
            "t_cold_first": sweeps["cold_first"],
            "t_cold_second": sweeps["cold_second"],
            "t_warm_first": sweeps["warm_first"],
            "t_warm_second": sweeps["warm_second"],
            "t_store_first": sweeps["store_first"],
            "t_store_second": sweeps["store_second"],
            "speedup_warm": speedup_warm,
            "speedup_service": speedup_service,
            "jobs": JOBS,
            "cells": n_cells,
            "cpu_count": cpus,
            "identical": True,
        },
    )
    # A live pool must beat re-spawning workers, and store hits must
    # beat everything: these hold on a single-CPU runner because the
    # savings are spawn/import time and skipped simulations, not
    # parallel headroom.
    assert speedup_warm > 1.0, f"warm pool slower than cold ({speedup_warm:.2f}x)"
    assert speedup_service >= 2.0, (
        f"store-backed sweep only {speedup_service:.2f}x over cold"
    )

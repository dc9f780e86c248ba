"""Wall-clock benchmark for the process-pool layer (not a paper figure).

``bench_sweep_wallclock`` runs the ERP sweep serial (``jobs=1``) vs
fanned out over the process-pool cell executor.  The parallel result
must serialize byte-identically to the serial one; the measured
speedup, worker count and CPU count land in
``BENCH_sweep_wallclock.json``.

Speedup *assertions* are deliberately conditional on the host actually
having cores to parallelize over — a 1-CPU CI runner still verifies
equality, it just records a speedup near (or below) 1.
"""

import json
import os
import time

from repro.experiments import current_scale, run_erp_sweep
from repro.experiments.executor import default_jobs
from repro.utils.tables import format_table

from _shared import emit

#: Reduced grid: enough cells to amortize pool startup at every scale
#: without turning the benchmark into a second full sweep.
SCHEDULERS = ("greedy", "combined")
ERPS = (0.0, 0.6)


def _sweep_jobs() -> int:
    """Worker count for the parallel leg: REPRO_JOBS when set, else
    up to 4 processes (the executor's target runner size)."""
    if os.environ.get("REPRO_JOBS"):
        return default_jobs()
    return max(1, min(4, os.cpu_count() or 1))


def bench_sweep_wallclock():
    scale = current_scale()
    jobs = _sweep_jobs()
    # A result store would make the parallel leg a replay of the serial
    # one; this benchmark must measure actual simulation work.
    store = os.environ.pop("REPRO_STORE", None)
    try:
        t0 = time.perf_counter()
        serial = run_erp_sweep(scale, SCHEDULERS, ERPS, jobs=1)
        t_serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = run_erp_sweep(scale, SCHEDULERS, ERPS, jobs=jobs)
        t_parallel = time.perf_counter() - t0
    finally:
        if store is not None:
            os.environ["REPRO_STORE"] = store
    # Determinism contract: whatever `jobs` is, the sweep serializes
    # byte-identically to the serial loop.
    assert json.dumps(parallel, sort_keys=True) == json.dumps(serial, sort_keys=True)
    speedup = t_serial / t_parallel if t_parallel > 0 else 0.0
    n_cells = len(SCHEDULERS) * len(ERPS) * len(scale.seeds)
    cpus = os.cpu_count() or 1
    table = format_table(
        ["leg", "jobs", "cells", "seconds"],
        [
            ["serial", 1, n_cells, round(t_serial, 3)],
            ["parallel", jobs, n_cells, round(t_parallel, 3)],
            ["speedup", "", "", round(speedup, 2)],
        ],
        title=f"ERP sweep wall clock ({scale.name} scale, {cpus} CPUs)",
    )
    emit(
        "sweep_wallclock",
        table,
        extra={
            "serial_s": t_serial,
            "parallel_s": t_parallel,
            "speedup": speedup,
            "jobs": jobs,
            "cells": n_cells,
            "cpu_count": cpus,
            "identical": True,
        },
    )
    if cpus >= 4 and jobs >= 4 and n_cells >= 4:
        # On a real multi-core runner the fan-out must actually pay.
        assert speedup >= 1.5, f"parallel sweep speedup only {speedup:.2f}x"

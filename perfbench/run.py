#!/usr/bin/env python3
"""The repository benchmark: end-to-end timings of what a user waits for.

Four workloads, each a closed loop with one client in one process:

* ``cli-run``     -- one child ``python -m repro run --preset experiment
  --days 20 --json`` per op (N = 500, combined scheme, ERP 0);
* ``fig6-sweep``  -- the Fig. 6 grid (schemes x ERP grid, bench horizon)
  streamed serially through ``iter_configs``; one op is one cell;
* ``store-rerun`` -- an all-hit ``map_cells`` over a filled result store;
* ``pool-grid``   -- ``map_cells(jobs=2)`` into a fresh result store.

Run from the repository root::

    python3 perfbench/run.py --workload fig6-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a separate
run that wraps the layers' public functions (:mod:`tracer`) and prints
the per-layer split.  The last stdout line is one JSON object; every run
also appends a numeric ``history`` row to ``perfbench/out/<workload>.json``
(``repro drift`` diffs two rows or two files).  Every op's summaries are
checked against ``perfbench/reference.json``; the exit code is 1 when any
op failed.  ``--write-reference`` regenerates that file.  NOTES.md says
why each workload exists and how steady each metric is.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

CLI_ARGS = ["run", "--preset", "experiment", "--days", "20", "--json"]
FIG6_DAYS = 15.0  # the "bench" scale horizon of repro.experiments.common
FIG6_SEEDS = (1,)
SHORT_DAYS = 0.5  # short cells, so pool fan-out is a visible share of an op
SHORT_SEEDS = (1, 2)
POOL_JOBS = 2
SETUP_REPEATS = 3  # set-ups per untraced run; setup_s is their median
IMPORT_REPEATS = 3
ARMED_REPEATS = 3
OP_TIMEOUT_S = 120.0
PROBE_LOOP = 20_000
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 0.25
PROBE_REF_S = 0.0015  # the probe loop's time on the idle tuning host
HISTORY_MAX = 50

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "cells_per_s": "1/s",
    "cpu_per_cell_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> (span name, what to take).  ``self`` is the span's
#: self time per op, ``calls`` its call count per op.
SPAN_METRICS = {
    "world.build_s": ("world.build", "self"),
    "world.builds": ("world.build", "calls"),
    "world.run_self_s": ("world.run", "self"),
    "world.handlers_self_s": ("world.handlers", "self"),
    "engine.loop_self_s": ("engine.loop", "self"),
    "energy.recompute_s": ("energy.recompute", "self"),
    "energy.recompute_calls": ("energy.recompute", "calls"),
    "energy.advance_s": ("energy.advance", "self"),
    "energy.handoffs_s": ("energy.handoffs", "self"),
    "clusters.rotate_s": ("clusters.rotate", "self"),
    "clusters.relocate_s": ("clusters.relocate", "self"),
    "gate.check_s": ("gate.check", "self"),
    "gate.check_calls": ("gate.check", "calls"),
    "fleet.dispatch_self_s": ("fleet.dispatch", "self"),
    "scheduler.assign_s": ("scheduler.assign", "self"),
    "scheduler.assign_calls": ("scheduler.assign", "calls"),
    "metrics.record_s": ("metrics.record", "self"),
    "executor.lookup_s": ("executor.lookup", "self"),
    "executor.self_s": ("executor.map", "self"),
    "store.get_s": ("store.get", "self"),
    "store.gets": ("store.get", "calls"),
    "store.put_s": ("store.put", "self"),
    "pool.start_s": ("pool.start", "self"),
    "pool.parent_wait_s": ("pool.wait", "self"),
    "pool.stop_s": ("pool.stop", "self"),
}
OTHER_LAYER_METRICS = (
    "import.total_s", "import.scipy_stats_s", "import.scipy_spatial_s",
    "import.numpy_s", "import.repro_self_s",
    "engine.events", "fleet.sorties",
    "store.hit_ratio", "store.bytes",
    "pool.first_result_s", "pool.child_cpu_s", "pool.scaling_efficiency",
    "obs.armed_ratio", "trace.overhead_ratio", "trace.unattributed_ratio",
)
#: Counts that are a pure function of the code and the workload: they
#: must repeat exactly across runs, so they are pinned in reference.json.
EXACT_COUNTS = (
    "engine.events", "energy.recompute_calls", "gate.check_calls",
    "scheduler.assign_calls", "fleet.sorties", "store.gets",
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_efficiency"):
        return "ratio"
    if name == "store.bytes":
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------
# helpers


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def import_repro() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401


def digest(summary: dict) -> str:
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


def children_cpu_s() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime + children_cpu_s()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def tail(times):
    """The highest percentile with at least ten ops beyond it, as
    ``(percentile, value)``, or None when there are too few ops."""
    n = len(times)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            ordered = sorted(times)
            return pct, ordered[min(n - 1, int(round(pct / 100.0 * (n - 1))))]
    return None


class Checker:
    """Compares op outputs with reference.json, or records them."""

    def __init__(self, record: bool) -> None:
        self.record = record
        self.ref = {} if record else json.loads(REFERENCE.read_text())

    def summary(self, group: str, key: str, summary: dict) -> bool:
        table = self.ref.setdefault(group, {})
        if self.record and key not in table:
            table[key] = digest(summary)
        return table.get(key) == digest(summary)

    def counts(self, workload: str, counts: dict) -> bool:
        table = self.ref.setdefault("counts", {})
        if self.record:
            table[workload] = counts
        return table.get(workload) == counts


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One closed-loop workload: ``setup()`` then passes of ops.

    ``ops()`` yields the callables of one pass; each returns
    ``(cells, ok)``.  Only whole passes are measured, so every run times
    the same multiset of ops whatever the seed-driven order.
    """

    name = ""
    cpus = 1  # CPUs the run is pinned to, children included
    last_store = None  # the result store the latest op used, if any

    def __init__(self, seed: int, checker: Checker) -> None:
        self.rng = random.Random(seed)
        self.check = checker
        self.counts = {"engine.events": 0, "fleet.sorties": 0}

    def note(self, summary: dict) -> None:
        self.counts["engine.events"] += int(summary["events_fired"])
        self.counts["fleet.sorties"] += int(summary["n_sorties"])

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self):
        raise NotImplementedError

    def close(self) -> None:
        pass


class CliRun(Workload):
    name = "cli-run"

    def __init__(self, seed, checker):
        super().__init__(seed, checker)
        self.child = [sys.executable, "-m", "repro", *CLI_ARGS]

    def setup(self):
        self.op()  # warm-up: page cache, .pyc files

    def ops(self):
        yield self.op

    def run_child(self, argv):
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=OP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            log(proc.stderr[-2000:])
            return False
        summary = json.loads(proc.stdout)["summary"]
        self.note(summary)
        return self.check.summary("cli-run", "experiment-20d", summary)

    def op(self):
        return 1, self.run_child(self.child)


class Fig6Sweep(Workload):
    name = "fig6-sweep"

    def setup(self):
        import_repro()
        from repro.experiments import executor
        from repro.experiments.common import ERP_GRID, SCHEMES, ExperimentScale

        self.executor = executor
        scale = ExperimentScale("bench", FIG6_DAYS, FIG6_SEEDS)
        self.keys = [(s, e, k) for s in SCHEMES for e in ERP_GRID for k in FIG6_SEEDS]
        self.configs = [
            scale.base_config(scheduler=s, erp=e).with_overrides(seed=k)
            for s, e, k in self.keys
        ]
        warm = self.rng.randrange(len(self.configs))
        _, summary, _ = next(executor.iter_configs([self.configs[warm]], jobs=1))
        if not self.cell_ok(warm, summary):
            raise RuntimeError("fig6-sweep warm-up cell differs from the reference")
        self.counts = dict.fromkeys(self.counts, 0)

    def cell_ok(self, i, summary) -> bool:
        d = summary.as_dict()
        self.note(d)
        return self.check.summary("fig6-sweep", "/".join(map(str, self.keys[i])), d)

    def ops(self):
        order = self.rng.sample(range(len(self.configs)), len(self.configs))
        stream = self.executor.iter_configs([self.configs[i] for i in order], jobs=1)

        def cell():
            j, summary, _ = next(stream)
            return 1, self.cell_ok(order[j], summary)

        for _ in order:
            yield cell


class ShortGrid(Workload):
    """Shared set-up of the two workloads over the short-horizon grid."""

    def setup(self):
        import_repro()
        from repro.experiments import executor
        from repro.experiments.common import ERP_GRID, SCHEMES, ExperimentScale
        from repro.experiments.store import ResultStore

        self.executor = executor
        self.ResultStore = ResultStore
        self.schemes, self.erps = list(SCHEMES), list(ERP_GRID)
        self.scale = ExperimentScale("short", SHORT_DAYS, SHORT_SEEDS)
        self.tmp = OUT / f"tmp-{self.name}-{os.getpid()}"
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        self.store = self.first_store()
        t0 = time.perf_counter()
        self.serial = executor.map_cells(
            self.scale, self.schemes, self.erps, jobs=1, store=self.store
        )
        self.serial_s = time.perf_counter() - t0
        for key, summary in self.serial.items():
            if not self.check.summary("short-grid", "/".join(map(str, key)), summary.as_dict()):
                raise RuntimeError(f"short-grid cell {key} differs from the reference")
        self.op()  # warm-up op, discarded
        self.counts = dict.fromkeys(self.counts, 0)

    def first_store(self):
        return None

    def shuffled(self):
        return self.rng.sample(self.schemes, len(self.schemes)), self.rng.sample(
            self.erps, len(self.erps)
        )

    def ops(self):
        yield self.op

    def result_ok(self, out) -> bool:
        for summary in out.values():
            self.note(summary.as_dict())
        return out == self.serial

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


class StoreRerun(ShortGrid):
    name = "store-rerun"

    def first_store(self):
        return self.ResultStore(self.tmp / "store")

    def op(self):
        hits = self.store.stats["hits"]
        schemes, erps = self.shuffled()
        out = self.executor.map_cells(self.scale, schemes, erps, jobs=1, store=self.store)
        self.last_store = self.store
        return len(out), self.result_ok(out) and self.store.stats["hits"] - hits == len(out)


class PoolGrid(ShortGrid):
    name = "pool-grid"
    cpus = POOL_JOBS
    child_cpu_s = 0.0  # CPU of reaped pool workers, summed over ops

    def op(self):
        store = self.ResultStore(self.tmp / f"s{time.perf_counter_ns()}")
        schemes, erps = self.shuffled()
        cpu0 = children_cpu_s()
        out = self.executor.map_cells(
            self.scale, schemes, erps, jobs=POOL_JOBS, store=store
        )
        self.child_cpu_s += children_cpu_s() - cpu0
        self.last_store = store
        return len(out), self.result_ok(out) and store.stats["puts"] == len(out)


WORKLOAD_TYPES = {w.name: w for w in (CliRun, Fig6Sweep, StoreRerun, PoolGrid)}


# ---------------------------------------------------------------------------
# measurement


class Sample:
    """Op timings and outcomes of one measured stretch.

    ``raw`` holds wall times as measured; ``times`` and ``cpu`` (CPU of
    this process and its reaped children) are rescaled to the reference
    machine speed by the speed probe taken around each op.
    """

    def __init__(self) -> None:
        self.raw = []
        self.spans = []  # (start, end) of each op
        self.raw_cpu = []
        self.times = []
        self.cpu = []
        self.cells = 0
        self.failed = 0

    def add(self, t0: float, t1: float, cpu: float) -> None:
        self.raw.append(t1 - t0)
        self.spans.append((t0, t1))
        self.raw_cpu.append(cpu)

    def rescale(self, speed: "SpeedProbe") -> None:
        scales = [speed.scale(t0, t1) for t0, t1 in self.spans]
        self.times = [t * k for t, k in zip(self.raw, scales)]
        self.cpu = [c * k for c, k in zip(self.raw_cpu, scales)]
        self.probe_p50_s = statistics.median(t for _, took in speed.samples for t in took)


class SpeedProbe:
    """Samples the speed of each CPU the benchmark may run on.

    Other tenants of a shared host slow every process on it, by up to 60 %
    for seconds at a time on the 2-vCPU VM this benchmark was tuned on,
    and not equally on every vCPU.  One side thread per CPU in the
    caller's affinity set, pinned to that CPU, times a fixed pure-Python
    loop every ``PROBE_EVERY_S`` (about 2 % of the CPU).  An interval's
    timings are reported in seconds at the reference speed,
    ``measured * PROBE_REF_S / probe``, where ``probe`` is the mean over
    the CPUs of the median loop time sampled within ``PROBE_WINDOW_S`` of
    the interval.
    """

    def __init__(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        self.samples = [([], []) for _ in cpus]  # (end times, loop times)
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._loop, args=(cpu, at, took), daemon=True)
            for cpu, (at, took) in zip(cpus, self.samples)
        ]
        for thread in self._threads:
            thread.start()

    def _loop(self, cpu: int, at: list, took: list) -> None:
        os.sched_setaffinity(0, {cpu})  # pid 0: this thread only
        while not self._stop.wait(PROBE_EVERY_S):
            t0 = time.perf_counter()
            s = 0
            for i in range(PROBE_LOOP):
                s += i * i % 7
            t1 = time.perf_counter()
            at.append(t1)
            took.append(t1 - t0)

    def stop(self) -> "SpeedProbe":
        self._stop.set()
        for thread in self._threads:
            thread.join()
        return self

    def scale(self, t0: float, t1: float) -> float:
        medians = []
        for at, took in self.samples:
            lo = bisect.bisect_left(at, t0 - PROBE_WINDOW_S)
            hi = bisect.bisect_right(at, t1 + PROBE_WINDOW_S)
            medians.append(statistics.median(took[lo:hi] or took[-1:]))
        return PROBE_REF_S / statistics.mean(medians)


def measure(workload: Workload, seconds: float, tracer=None) -> Sample:
    """Run whole passes of ops until the next pass would overrun
    ``seconds`` (at least one pass).  ``gc.collect()`` runs between ops,
    outside the timed region."""
    sample = Sample()
    speed = SpeedProbe()
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for op in workload.ops():
            gc.collect()
            if tracer is not None:
                tracer.begin_op(len(sample.raw))
            cpu0 = cpu_s()
            t0 = time.perf_counter()
            try:
                cells, ok = op()
            except Exception:  # an op that raises is a failed op
                log(traceback.format_exc())
                cells, ok = 0, False
            t1 = time.perf_counter()
            sample.add(t0, t1, cpu_s() - cpu0)
            if tracer is not None:
                tracer.end_op()
            sample.cells += cells
            sample.failed += (not ok) or t1 - t0 > OP_TIMEOUT_S
        now = time.perf_counter()
        if now - start + (now - t_pass) > seconds:
            time.sleep(PROBE_WINDOW_S)  # let the probe cover the last op
            sample.rescale(speed.stop())
            return sample


def untraced(workload: Workload, args) -> dict:
    sample = measure(workload, args.seconds)
    metrics = {
        "op_p50_s": statistics.median(sample.times),
        "cells_per_s": sample.cells / sum(sample.times),
        "cpu_per_cell_s": sum(sample.cpu) / max(sample.cells, 1),
        "peak_rss_mb": peak_rss_mb(),
    }
    setups = [args.setup_s] + [fresh_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
    metrics = {"setup_s": statistics.median(setups), **metrics}
    extra = {
        "ops": len(sample.times),
        "failed_op_ratio": sample.failed / len(sample.times),
        "setup_runs_s": setups,
        "raw_op_p50_s": statistics.median(sample.raw),
        "probe_p50_s": sample.probe_p50_s,
    }
    t = tail(sample.times)
    if t is not None:
        extra["op_tail_pct"], extra["op_tail_s"] = t
    return {
        "attempted": len(sample.times),
        "failed": sample.failed,
        "metrics": metrics,
        "extra": extra,
    }


def fresh_setup_s(args) -> float:
    """One more set-up in a fresh interpreter (the set-up includes the
    imports, which only a new process pays again)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# traced run


def parse_importtime(text: str) -> dict:
    """Import metrics from ``python -X importtime`` output.

    A module's line follows those of the modules it imported, indented
    one level deeper, so the parent of a line is the next line with a
    smaller indent.
    """
    rows = []  # (indent, module, own s, cumulative s, parent module)
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        indent = len(name) - len(name.lstrip())
        rows.append([indent, name.strip(), int(own) * 1e-6, int(cumulative) * 1e-6, None])
    open_parents = []
    for row in reversed(rows):
        while open_parents and open_parents[-1][0] >= row[0]:
            open_parents.pop()
        row[4] = open_parents[-1][1] if open_parents else None
        open_parents.append(row)

    def within(name, package):
        return name is not None and (name == package or name.startswith(package + "."))

    def cumulative_of(package):
        # Outermost lines of the package; `from scipy import stats` shows
        # only the subpackage's own submodules, not a line of its own.
        return sum(c for _, n, _, c, p in rows if within(n, package) and not within(p, package))

    return {
        "import.total_s": cumulative_of("repro"),
        "import.scipy_stats_s": cumulative_of("scipy.stats"),
        "import.scipy_spatial_s": cumulative_of("scipy.spatial"),
        "import.numpy_s": cumulative_of("numpy"),
        "import.repro_self_s": sum(own for _, n, own, _, _ in rows if within(n, "repro")),
    }


def import_profile() -> dict:
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr[-2000:])
        runs.append(parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def span_metrics(totals: dict, ops: int) -> dict:
    out = {}
    for metric, (span, field) in SPAN_METRICS.items():
        value = totals.get(span, {}).get("self_s" if field == "self" else "calls", 0)
        out[metric] = value / ops
    return out


def first_result_s(tracer) -> float:
    """Mean time from op start to the parent's first result write."""
    import numpy as np

    names = list(tracer.names)
    if "store.put" not in names:
        return 0.0
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    start = np.frombuffer(tracer.start, dtype=np.float64)
    op = np.frombuffer(tracer.op_id, dtype=np.int32)
    roots = name_id == names.index("op")
    puts = name_id == names.index("store.put")
    gaps = [
        start[puts & (op == k)].min() - start[roots & (op == k)][0]
        for k in np.unique(op[roots])
        if (puts & (op == k)).any()
    ]
    return float(np.mean(gaps)) if gaps else 0.0


def traced(workload: Workload, args) -> dict:
    """Untraced ops for half the time, then traced ops for the rest."""
    from tracer import EXPERIMENT_TARGETS, SIM_TARGETS, Tracer

    half = args.seconds / 2.0
    base = measure(workload, half)
    layers = dict.fromkeys(OTHER_LAYER_METRICS, 0.0)
    counts0 = dict(workload.counts)
    if isinstance(workload, CliRun):
        sample, totals, wall, unattributed = traced_cli(workload, half)
    else:
        tracer = Tracer()
        tracer.install(SIM_TARGETS + EXPERIMENT_TARGETS)
        store = getattr(workload, "store", None)
        stats0 = dict(store.stats) if store is not None else None
        cpu0 = workload.child_cpu_s if isinstance(workload, PoolGrid) else 0.0
        try:
            sample = measure(workload, half, tracer)
        finally:
            tracer.uninstall()
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"{workload.name}-spans.npz")
        totals = tracer.totals()
        wall = sum(sample.raw)
        unattributed = totals["op"]["self_s"]
        if isinstance(workload, PoolGrid):
            layers["pool.first_result_s"] = first_result_s(tracer)
            layers["pool.child_cpu_s"] = (workload.child_cpu_s - cpu0) / len(sample.times)
            layers["pool.scaling_efficiency"] = workload.serial_s / (
                POOL_JOBS * statistics.median(base.raw)
            )
        if stats0 is not None:
            hits = store.stats["hits"] - stats0["hits"]
            layers["store.hit_ratio"] = hits / (hits + store.stats["misses"] - stats0["misses"])
        if workload.last_store is not None:
            layers["store.bytes"] = workload.last_store.total_bytes()
    ops = len(sample.times)
    layers.update(span_metrics(totals, ops))
    for name in ("engine.events", "fleet.sorties"):
        layers[name] = (workload.counts[name] - counts0[name]) / ops
    if isinstance(workload, CliRun):
        layers["obs.armed_ratio"] = armed_ratio(workload) / statistics.median(base.raw)
    layers["trace.overhead_ratio"] = statistics.median(sample.times) / statistics.median(
        base.times
    )
    layers["trace.unattributed_ratio"] = unattributed / wall
    layers.update(import_profile())
    counts = {k: layers[k] for k in EXACT_COUNTS}
    failed = base.failed + sample.failed
    if not workload.check.counts(workload.name, counts):
        log(f"exact counts changed: {counts} != {workload.check.ref['counts'].get(workload.name)}")
        failed = max(failed, 1)
    return {
        "attempted": len(base.times) + ops,
        "failed": failed,
        "metrics": layers,
        "extra": {"ops": ops},
    }


def traced_cli(workload: CliRun, seconds: float):
    """Traced cli-run ops: the same CLI entry point, run by a child that
    installs the tracer after its imports (``--cli-child``)."""
    sample = Sample()
    totals: dict = {}
    wall = unattributed = 0.0
    spans = OUT / "cli-run-spans"
    OUT.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(Path(__file__).resolve()), "--cli-child", str(spans), *CLI_ARGS]
    speed = SpeedProbe()
    start = time.perf_counter()
    while not sample.raw or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        ok = workload.run_child(argv)
        sample.add(t0, time.perf_counter(), 0.0)
        sample.cells += 1
        sample.failed += not ok
        child = json.loads(Path(f"{spans}.json").read_text())
        for name, row in child["totals"].items():
            acc = totals.setdefault(name, {"self_s": 0.0, "calls": 0})
            acc["self_s"] += row["self_s"]
            acc["calls"] += row["calls"]
        wall += child["wall_s"]
        unattributed += child["totals"]["op"]["self_s"]
    time.sleep(PROBE_WINDOW_S)
    sample.rescale(speed.stop())
    return sample, totals, wall, unattributed


def cli_child(spans: str, argv) -> int:
    """Child side of a traced cli-run op (after imports, so that
    ``trace.unattributed_ratio`` excludes import; see import.*)."""
    import_repro()
    import repro.cli
    from tracer import SIM_TARGETS, Tracer

    tracer = Tracer()
    tracer.install(SIM_TARGETS)
    tracer.begin_op(0)
    rc = repro.cli.main(argv)
    wall = tracer.end_op()
    tracer.dump(f"{spans}.npz")
    Path(f"{spans}.json").write_text(json.dumps({"wall_s": wall, "totals": tracer.totals()}))
    return rc


def armed_ratio(workload: CliRun) -> float:
    """Median wall of ``repro run ... --telemetry DIR`` (the untraced
    median is divided out by the caller)."""
    telemetry = OUT / "cli-run-telemetry"
    times = []
    for _ in range(ARMED_REPEATS):
        shutil.rmtree(telemetry, ignore_errors=True)
        t0 = time.perf_counter()
        if not workload.run_child(workload.child + ["--telemetry", str(telemetry)]):
            raise RuntimeError("armed cli run failed")
        times.append(time.perf_counter() - t0)
    shutil.rmtree(telemetry, ignore_errors=True)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# output


def write_history(workload: str, args, result: dict) -> Path:
    """Append one numeric row to ``out/<workload>.json`` -- the format
    ``repro drift`` reads (the latest ``history`` row)."""
    path = OUT / f"{workload}.json"
    data = {"benchmark": "perfbench", "workload": workload, "history": []}
    if path.is_file():
        data = json.loads(path.read_text())
    row = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": str(args.seed),
        "trace": str(args.trace),
        "attempted": result["attempted"],
        "failed": result["failed"],
        **{k: v for k, v in result["extra"].items() if not isinstance(v, list)},
        **result["metrics"],
    }
    data["history"] = (data["history"] + [row])[-HISTORY_MAX:]
    OUT.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1))
    return path


def unit(name: str, traced_run: bool) -> str:
    return layer_unit(name) if traced_run else END_TO_END_UNITS[name]


def report(args, result: dict) -> None:
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, value in result["metrics"].items():
        print(f"  {name:28s} {value:14.6g} {unit(name, args.trace)}")
    print(f"  {'failed_op_ratio':28s} {result['failed'] / result['attempted']:14.6g} ratio")
    if args.trace:
        return
    extra = result["extra"]
    if "op_tail_s" in extra:
        print(f"  {'op_tail_s':28s} {extra['op_tail_s']:14.6g} s "
              f"(p{extra['op_tail_pct']:g} of {extra['ops']} ops)")
    else:
        print(f"  {'op_tail_s':28s} {'-':>14s}   ({extra['ops']} ops: too few for a tail)")


def main(argv=None) -> int:
    if len(sys.argv) > 2 and sys.argv[1] == "--cli-child":
        return cli_child(sys.argv[2], sys.argv[3:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOAD_TYPES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json from the current code")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"perfbench: no package sources at {SRC}; run from a repository checkout")
        return 2
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")

    checker = Checker(record=False)
    workload = WORKLOAD_TYPES[args.workload](args.seed, checker)
    # Pinning keeps the work on the CPUs the speed probe samples.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[: workload.cpus])
    speed = SpeedProbe()
    try:
        workload.setup()
        # Everything alive after set-up is exempt from collection, so the
        # gc.collect() between ops costs only what the ops allocated.
        gc.collect()
        gc.freeze()
        t_setup = time.perf_counter()
        args.setup_s = (t_setup - T_START) * speed.stop().scale(T_START, t_setup)
        if args.setup_only:
            print(json.dumps({"setup_s": args.setup_s}))
            return 0
        if args.trace:
            result = traced(workload, args)
        else:
            result = untraced(workload, args)
    finally:
        workload.close()
    write_history(args.workload, args, result)
    report(args, result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            k: {"value": v, "unit": unit(k, args.trace)} for k, v in result["metrics"].items()
        },
    }))
    return 1 if result["failed"] else 0


def write_reference() -> int:
    """Record every workload's summaries and exact counts (traced runs
    of two seconds) into reference.json."""
    checker = Checker(record=True)
    args = argparse.Namespace(seconds=2.0, seed=1, trace=1)
    for name, kind in WORKLOAD_TYPES.items():
        args.workload = name
        workload = kind(args.seed, checker)
        try:
            workload.setup()
            result = traced(workload, args)
        finally:
            workload.close()
        if result["failed"]:
            log(f"{name}: outputs are not deterministic within one run")
            return 1
        log(f"{name}: recorded")
    REFERENCE.write_text(json.dumps(checker.ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())

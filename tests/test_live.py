"""The live fleet telemetry plane (repro.obs.live + service wiring).

Covers the MetricsBus (deterministic worker-delta aggregation), the
LiveServer HTTP endpoints (/metrics, /healthz, /statusz), SLO rule
parsing and evaluation, the declared stats schemas that keep wire keys
from drifting, exporter edge cases under concurrency and hostile
names, and the ``repro top`` renderer.  The load-bearing invariants:
the plane is byte-invisible to simulation results, worker reply order
never changes the aggregate, and a respawned worker flips /healthz
from degraded back to ok.
"""

import json
import os
import re
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments import ExperimentScale
from repro.experiments.pool import WarmPool, get_warm_pool, shutdown_warm_pool
from repro.experiments.service import SweepService
from repro.experiments.store import ResultStore
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    POOL_STATS,
    SERVICE_DESCRIBE_KEYS,
    STORE_STATS,
    Instruments,
    InvariantViolation,
    MonitorSet,
    StatField,
    StatsSchema,
)
from repro.obs.live import (
    LiveServer,
    MetricsBus,
    SloEvaluator,
    live_interval_from_env,
    live_port_from_env,
    parse_slo_rules,
)
from repro.obs.spans import SpanTracer
from repro.obs.top import format_frame, run_top

TINY = ExperimentScale("tiny", days=0.05, seeds=(1, 2))

_PROM_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?P<labels>\{[^}]*\})? (?P<value>\S+)$"
)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for var in (
        "REPRO_STORE", "REPRO_START_METHOD", "REPRO_LIVE", "REPRO_LIVE_INTERVAL_S",
        "REPRO_SLO", "REPRO_STRICT_MONITORS",
    ):
        monkeypatch.delenv(var, raising=False)
    yield
    shutdown_warm_pool()


def _tiny_configs():
    cfg = TINY.base_config(scheduler="greedy", erp=0.2)
    return [cfg.with_overrides(seed=s) for s in TINY.seeds]


def _get(url, timeout_s=5.0):
    with urllib.request.urlopen(url, timeout=timeout_s) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), resp.read().decode()


def _lint_exposition(text):
    """Assert the exposition parses; returns the set of sample keys."""
    seen = set()
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _PROM_SAMPLE_RE.match(line)
        assert m, f"unparseable sample line {line!r}"
        key = (m.group("name"), m.group("labels"))
        assert key not in seen, f"duplicate sample {key}"
        seen.add(key)
        float(m.group("value"))
    return seen


# -- env knobs --------------------------------------------------------


class TestKnobs:
    def test_live_port_off_by_default(self, monkeypatch):
        assert live_port_from_env() is None
        monkeypatch.setenv("REPRO_LIVE", "0")
        assert live_port_from_env() is None

    def test_live_port_one_means_ephemeral(self, monkeypatch):
        monkeypatch.setenv("REPRO_LIVE", "1")
        assert live_port_from_env() == 0
        monkeypatch.setenv("REPRO_LIVE", "9100")
        assert live_port_from_env() == 9100

    def test_live_port_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_LIVE", "yes")
        with pytest.raises(ValueError):
            live_port_from_env()

    def test_interval_default_and_floor(self, monkeypatch):
        assert live_interval_from_env() == 1.0
        monkeypatch.setenv("REPRO_LIVE_INTERVAL_S", "0.001")
        assert live_interval_from_env() == 0.05


# -- stats schemas ----------------------------------------------------


class TestStatsSchema:
    def test_pool_stats_match_declared_schema(self):
        with WarmPool(jobs=1) as pool:
            POOL_STATS.validate(pool.stats)
            assert set(pool.stats) == {f.key for f in POOL_STATS.fields}

    def test_store_stats_match_declared_schema(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        STORE_STATS.validate(store.stats)
        assert set(store.stats) == {f.key for f in STORE_STATS.fields}

    def test_service_describe_carries_declared_keys(self, tmp_path):
        service = SweepService(
            tmp_path / "svc.sock", jobs=1, warm=False,
            store_dir=tmp_path / "store",
        )
        described = service.describe()
        for key in SERVICE_DESCRIBE_KEYS:
            assert key in described, key

    def test_validate_names_the_drift(self):
        schema = StatsSchema("s", "s", [StatField("a", "a"), StatField("b", "b")])
        with pytest.raises(ValueError, match="missing.*'b'"):
            schema.validate({"a": 0})
        with pytest.raises(ValueError, match="extra.*'c'"):
            schema.validate({"a": 0, "b": 0, "c": 0})
        schema.validate(schema.new_stats())

    def test_counter_name_rejects_undeclared_keys(self):
        with pytest.raises(KeyError):
            POOL_STATS.counter_name("not_a_stat")
        assert POOL_STATS.counter_name("respawns") == "pool.respawns"

    def test_duplicate_fields_rejected(self):
        with pytest.raises(ValueError):
            StatsSchema("s", "s", [StatField("a", "x"), StatField("a", "y")])


# -- metrics bus ------------------------------------------------------


def _delta(tasks=1, task_s=0.1, rss=1000.0):
    obs = Instruments()
    obs.counter("worker.tasks").inc(tasks)
    obs.histogram("worker.task_s", DEFAULT_LATENCY_BUCKETS).observe(task_s)
    obs.gauge("worker.maxrss_kb").set(rss)
    return obs.snapshot()


class TestMetricsBus:
    def test_absorb_is_order_independent(self):
        deltas = [(_delta(1, 0.01, 100.0), 0), (_delta(2, 0.5, 200.0), 1),
                  (_delta(3, 2.0, 300.0), 0)]
        forward, backward = MetricsBus(), MetricsBus()
        for d, wid in deltas:
            forward.absorb(d, wid)
        for d, wid in reversed(deltas):
            backward.absorb(d, wid)
        assert forward.snapshot() == backward.snapshot()
        # Additive fields are order-independent; gauges are
        # point-in-time readings, so only the last write is contractual.
        f_rows, b_rows = forward.worker_rows(), backward.worker_rows()
        assert {w: r["counters"] for w, r in f_rows.items()} == \
            {w: r["counters"] for w, r in b_rows.items()}
        assert {w: r["deltas"] for w, r in f_rows.items()} == \
            {w: r["deltas"] for w, r in b_rows.items()}

    def test_counters_and_histograms_fold_additively(self):
        bus = MetricsBus()
        bus.absorb(_delta(2, 0.1), 0)
        bus.absorb(_delta(3, 0.2), 1)
        snap = bus.snapshot()
        assert snap["counters"]["worker.tasks"] == 5
        assert snap["histograms"]["worker.task_s"]["count"] == 2
        assert snap["histograms"]["worker.task_s"]["total"] == pytest.approx(0.3)

    def test_gauges_stay_per_worker_never_summed(self):
        bus = MetricsBus()
        bus.absorb(_delta(rss=100.0), 0)
        bus.absorb(_delta(rss=300.0), 1)
        assert "worker.maxrss_kb" not in bus.snapshot()["gauges"]
        rows = bus.worker_rows()
        assert rows[0]["gauges"]["worker.maxrss_kb"] == 100.0
        assert rows[1]["gauges"]["worker.maxrss_kb"] == 300.0

    def test_none_and_empty_deltas_are_noops(self):
        bus = MetricsBus()
        bus.absorb(None, 0)
        bus.absorb({}, 0)
        assert bus.worker_rows() == {}

    def test_merged_histograms_answer_quantiles(self):
        bus = MetricsBus()
        for task_s in (0.01, 0.02, 0.03, 5.0):
            bus.absorb(_delta(task_s=task_s), 0)
        h = bus.instruments.histogram("worker.task_s")
        assert h.quantile(0.5) <= 0.05
        assert h.quantile(0.99) >= 5.0
        assert bus.bucket_bounds()["worker.task_s"] == list(DEFAULT_LATENCY_BUCKETS)


# -- SLO rules --------------------------------------------------------


class TestSloRules:
    def test_parse_spec(self):
        rules = parse_slo_rules("pool.task_s:p99<=0.5; pool.respawns:rate<=0.1")
        assert [r.name for r in rules] == [
            "pool.task_s:p99<=0.5", "pool.respawns:rate<=0.1",
        ]
        assert rules[0].stat == "p99" and rules[0].threshold == 0.5

    def test_parse_empty_spec(self):
        assert parse_slo_rules("") == []
        assert parse_slo_rules(" ; ") == []

    @pytest.mark.parametrize("bad", [
        "pool.task_s:p99",          # no threshold
        "pool.task_s<=0.5",         # no stat
        "pool.task_s:p42<=0.5",     # unknown stat
        "pool.task_s:p99<=fast",    # non-numeric threshold
    ])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_slo_rules(bad)

    def _evaluator(self, spec, strict=False):
        monitors = MonitorSet(
            instruments=Instruments(), spans=SpanTracer(), strict=strict
        )
        return SloEvaluator(parse_slo_rules(spec), monitors), monitors

    def test_evaluate_ok_and_violation(self):
        bus = MetricsBus()
        bus.absorb(_delta(task_s=0.2), 0)
        ev, monitors = self._evaluator(
            "worker.task_s:p99<=10; worker.task_s:max<=0.01"
        )
        results = ev.evaluate(bus)
        assert results[0]["ok"] is True
        assert results[1]["ok"] is False
        assert ev.last_results == results
        counters = monitors.instruments.snapshot()["counters"]
        assert counters["monitors.violations"] == 1
        assert counters["monitors.slo.violations"] == 1

    def test_unrecorded_instrument_passes(self):
        ev, _ = self._evaluator("never.recorded:p99<=1")
        results = ev.evaluate(MetricsBus())
        assert results[0]["ok"] is True and results[0]["observed"] is None

    def test_strict_mode_raises(self):
        bus = MetricsBus()
        bus.absorb(_delta(task_s=3.0), 0)
        ev, _ = self._evaluator("worker.task_s:max<=0.1", strict=True)
        with pytest.raises(InvariantViolation, match="SLO"):
            ev.evaluate(bus)


# -- live HTTP server -------------------------------------------------


class TestLiveServer:
    def test_endpoints_serve_metrics_health_status(self):
        bus = MetricsBus()
        bus.absorb(_delta(tasks=4, task_s=0.25), 0)
        bus.instruments.counter("executor.cells").inc(8)
        with LiveServer(
            bus, port=0,
            status_fn=lambda: {"service": {"jobs": 2}},
            health_fn=lambda: {"status": "ok"},
        ) as live:
            status, ctype, text = _get(live.url + "/metrics")
            assert status == 200 and ctype.startswith("text/plain")
            names = {name for name, _labels in _lint_exposition(text)}
            assert "repro_worker_tasks_total" in names
            assert "repro_worker_task_s_bucket" in names
            assert "repro_worker_task_s_count" in names

            status, ctype, text = _get(live.url + "/healthz")
            assert status == 200 and ctype.startswith("application/json")
            assert json.loads(text)["status"] == "ok"

            status, _ctype, text = _get(live.url + "/statusz")
            assert status == 200
            assert json.loads(text)["service"]["jobs"] == 2

    def test_unhealthy_serves_503_and_unknown_404(self):
        with LiveServer(
            MetricsBus(), port=0, health_fn=lambda: {"status": "unhealthy"}
        ) as live:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(live.url + "/healthz")
            assert err.value.code == 503
            assert json.loads(err.value.read())["status"] == "unhealthy"
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(live.url + "/nope")
            assert err.value.code == 404

    def test_scrape_of_empty_bus_is_valid_exposition(self):
        with LiveServer(MetricsBus(), port=0) as live:
            status, _ctype, text = _get(live.url + "/metrics")
            assert status == 200
            _lint_exposition(text)

    def test_unicode_and_colliding_names_sanitize_in_scrape(self):
        bus = MetricsBus()
        bus.instruments.counter("héllo.metric").inc(1)
        bus.instruments.counter("h_llo.metric").inc(2)
        with LiveServer(bus, port=0) as live:
            _status, _ctype, text = _get(live.url + "/metrics")
        names = {name for name, _labels in _lint_exposition(text)}
        assert "repro_h_llo_metric_total" in names
        assert "repro_h_llo_metric_total_dup2" in names

    def test_concurrent_scrape_while_writing(self):
        bus = MetricsBus()
        stop = threading.Event()
        errors = []

        def _writer():
            i = 0
            while not stop.is_set():
                try:
                    bus.absorb(_delta(task_s=0.01 * (i % 7 + 1)), i % 3)
                    bus.instruments.counter(f"churn.c{i % 50}").inc()
                    bus.instruments.histogram(
                        f"churn.h{i % 20}", DEFAULT_LATENCY_BUCKETS
                    ).observe(0.01)
                except Exception as exc:  # pragma: no cover - the test's point
                    errors.append(exc)
                    return
                i += 1

        writer = threading.Thread(target=_writer, daemon=True)
        with LiveServer(bus, port=0) as live:
            writer.start()
            try:
                for _ in range(25):
                    status, _ctype, text = _get(live.url + "/metrics")
                    assert status == 200
                    _lint_exposition(text)
            finally:
                stop.set()
                writer.join(timeout=5)
        assert not errors

    def test_sampler_thread_fires(self):
        ticks = []
        with LiveServer(
            MetricsBus(), port=0, sample_fn=lambda: ticks.append(1),
            interval_s=0.05,
        ):
            deadline = time.monotonic() + 5.0
            while not ticks and time.monotonic() < deadline:
                time.sleep(0.01)
        assert ticks

    def test_close_is_idempotent(self):
        live = LiveServer(MetricsBus(), port=0)
        url = live.url
        live.close()
        live.close()
        with pytest.raises((urllib.error.URLError, OSError)):
            _get(url + "/metrics", timeout_s=0.5)


# -- service integration ----------------------------------------------


class TestServiceLivePlane:
    def test_null_default_arms_nothing(self, tmp_path):
        service = SweepService(
            tmp_path / "svc.sock", jobs=1, warm=False,
            store_dir=tmp_path / "store",
        )
        assert service.bus is None and service.live is None
        assert service._slo_evaluator is None

    def test_armed_service_reports_health_transitions(self, tmp_path):
        service = SweepService(
            tmp_path / "svc.sock", jobs=2, warm=True,
            store_dir=tmp_path / "store", live_port=0,
        )
        try:
            pool = get_warm_pool(2)
            pool.ping()
            assert service._healthz()["status"] == "ok"

            victim = next(iter(pool._workers.values()))
            os.kill(victim.proc.pid, signal.SIGKILL)
            victim.proc.join(timeout=5)
            degraded = service._healthz()
            assert degraded["status"] == "degraded"
            assert degraded["workers_alive"] == 1

            # The next run culls the corpse and refills every slot:
            # degraded flips back to ok without a restart.
            pool.run("run", _tiny_configs())
            assert service._healthz()["status"] == "ok"

            for worker in pool._workers.values():
                os.kill(worker.proc.pid, signal.SIGKILL)
                worker.proc.join(timeout=5)
            assert service._healthz()["status"] == "unhealthy"
        finally:
            service.close_live()

    def test_healthz_idle_without_pool(self, tmp_path):
        service = SweepService(
            tmp_path / "svc.sock", jobs=1, warm=False,
            store_dir=tmp_path / "store", live_port=0,
        )
        try:
            assert service._healthz()["status"] == "idle"
        finally:
            service.close_live()

    def test_statusz_shape_and_worker_rows(self, tmp_path):
        service = SweepService(
            tmp_path / "svc.sock", jobs=2, warm=True,
            store_dir=tmp_path / "store", live_port=0,
            slo="worker.task_s:p99<=60",
        )
        try:
            get_warm_pool(2).run("run", _tiny_configs(),
                                 instruments=service.instruments)
            service._slo_evaluator.evaluate(service.bus)
            status = json.loads(json.dumps(service._statusz()))  # JSON-safe
            for key in ("service", "current", "histograms", "gauges",
                        "health", "workers", "slo"):
                assert key in status, key
            assert status["current"] is None
            assert status["workers"], "worker deltas should have streamed"
            for row in status["workers"].values():
                assert row["counters"]["worker.tasks"] >= 1
            assert status["slo"][0]["ok"] is True
            assert status["histograms"]["pool.task_s"]["count"] == len(TINY.seeds)
        finally:
            service.close_live()

    def test_worker_streaming_results_byte_identical(self):
        configs = _tiny_configs()
        with WarmPool(jobs=2) as plain_pool:
            plain = plain_pool.run("run", configs)
        with WarmPool(jobs=2) as streaming_pool:
            streaming_pool.attach_bus(MetricsBus())
            streamed = streaming_pool.run("run", configs)
        assert json.dumps([s.as_dict() for s in streamed], sort_keys=True) == \
            json.dumps([s.as_dict() for s in plain], sort_keys=True)

    def test_scraped_totals_match_pool_stats(self, tmp_path):
        service = SweepService(
            tmp_path / "svc.sock", jobs=2, warm=True,
            store_dir=tmp_path / "store", live_port=0,
        )
        try:
            pool = get_warm_pool(2)
            pool.run("run", _tiny_configs(), instruments=service.instruments)
            _status, _ctype, text = _get(service.live.url + "/metrics")
            samples = {}
            for line in text.splitlines():
                m = _PROM_SAMPLE_RE.match(line)
                if m and not m.group("labels"):
                    samples[m.group("name")] = float(m.group("value"))
            assert samples["repro_pool_tasks_total"] == pool.stats["tasks"]
            assert samples["repro_worker_tasks_total"] == pool.stats["tasks"]
            assert samples["repro_pool_task_s_count"] == len(TINY.seeds)
        finally:
            service.close_live()


# -- repro top --------------------------------------------------------


class TestTop:
    def _status(self):
        return {
            "service": {
                "jobs": 2, "requests_served": 3,
                "counters": {"executor.cells": 8.0,
                             "executor.cache_misses": 8.0},
                "pool": {"workers_alive": 2, "tasks": 8, "warm_hits": 4,
                         "respawns": 1},
                "store": {"entries": 8, "bytes": 4096, "hits": 0,
                          "misses": 8, "puts": 8},
            },
            "current": {"op": "submit_grid", "cells": 8, "completed": 4,
                        "sources": {"run": 4}},
            "histograms": {"pool.task_s": {"count": 8, "mean": 0.1,
                                           "max": 0.3}},
            "workers": {"0": {"deltas": 5, "counters": {"worker.tasks": 5},
                              "gauges": {"worker.maxrss_kb": 90000}},
                        "1": {"deltas": 3, "counters": {"worker.tasks": 3},
                              "gauges": {"worker.maxrss_kb": 91000}}},
            "health": {"status": "ok"},
            "slo": [{"rule": "pool.task_s:p99<=1", "ok": True,
                     "observed": 0.25},
                    {"rule": "pool.respawns:rate<=0.1", "ok": False,
                     "observed": 0.5}],
        }

    def test_format_frame_renders_all_sections(self):
        text = "\n".join(format_frame(self._status()))
        assert "status=ok" in text and "jobs=2" in text
        assert "4/8 cells" in text and "####" in text
        assert "warm_hits=4" in text and "entries=8" in text
        assert re.search(r"^\s+0\s+5\.00\s+62\.5%", text, re.M)
        assert "pool.task_s" in text
        assert "[OK ] pool.task_s:p99<=1" in text
        assert "[VIOLATION] pool.respawns:rate<=0.1" in text

    def test_format_frame_handles_minimal_payload(self):
        lines = format_frame({})
        assert any("(idle)" in line for line in lines)

    def test_run_top_plain_against_live_server(self, capsys):
        bus = MetricsBus()
        bus.absorb(_delta(tasks=2), 0)
        with LiveServer(
            bus, port=0,
            status_fn=lambda: {"service": {"jobs": 1},
                               "workers": {"0": bus.worker_rows()[0]},
                               "health": {"status": "ok"}},
        ) as live:
            code = run_top(live.url, interval_s=0.01, frames=2, plain=True)
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("repro top —") == 2
        assert "status=ok" in out

    def test_run_top_reports_dead_plane(self, capsys):
        code = run_top("http://127.0.0.1:9", interval_s=0.01, frames=1,
                       plain=True)
        assert code == 1
        assert "no live plane" in capsys.readouterr().out

    def test_cli_top_plain(self, capsys):
        from repro.cli import main

        with LiveServer(MetricsBus(), port=0,
                        status_fn=lambda: {"health": {"status": "ok"}}) as live:
            code = main(["top", "--url", live.url, "--frames", "1", "--plain"])
        assert code == 0
        assert "repro top —" in capsys.readouterr().out

"""Tests for the span side of repro.obs.log: the run's phase tree.

Covers the event log's parent/child phase bookkeeping, the byte-exact
``spans.jsonl`` round trip, the process-pool absorb/merge path (jobs=1
vs jobs=4 must produce structurally identical traces), the null log,
the phase timers derived from the spans, and the report-side tree
renderer.
"""

import json

import pytest

from repro.obs import (
    NULL_LOG,
    EventKind,
    EventLog,
    load_spans,
    render_span_tree,
)
from repro.experiments.executor import map_configs
from repro.sim.config import DAY_S, SimulationConfig

TINY = dict(
    n_sensors=30,
    n_targets=2,
    n_rvs=1,
    side_length_m=50.0,
    sim_time_s=0.05 * DAY_S,
    battery_capacity_j=400.0,
    initial_charge_range=(0.5, 0.8),
    dispatch_period_s=1800.0,
    seed=11,
)


def tiny_config(**overrides):
    params = dict(TINY)
    params.update(overrides)
    return SimulationConfig(**params)


class TestSpanTracer:
    """The log's phases: ids, nesting, attributes, marks, JSONL, absorb."""

    def test_parent_child_ids(self):
        log = EventLog()
        with log.phase("run") as run:
            with log.phase("tick") as tick:
                with log.phase("energy.advance") as adv:
                    pass
            with log.phase("tick") as tick2:
                pass
        rows = log.span_rows()
        assert [r["id"] for r in rows] == [1, 2, 3, 4]
        assert [r["parent"] for r in rows] == [None, 1, 2, 1]
        assert run.span_id == 1 and tick.span_id == 2
        assert adv.parent_id == tick.span_id
        assert tick2.parent_id == run.span_id

    def test_timing_is_nested(self):
        log = EventLog()
        with log.phase("outer") as outer:
            with log.phase("inner") as inner:
                pass
        assert outer.t0 <= inner.t0 <= inner.t1 <= outer.t1
        assert outer.duration_s >= inner.duration_s >= 0.0

    def test_attrs_and_events(self):
        log = EventLog()
        with log.phase("dispatch", backlog=3) as sp:
            sp.set(plans=2, profit_j=1.5)
            log.emit(5.0, EventKind.SORTIE_ASSIGNED, 0, 2.0, rv_id=0, clusters=(1, 2))
            log.emit(5.0, EventKind.RV_ARRIVED, 0, 7.0)  # no attrs: no span event
        row = log.span_rows()[0]
        assert row["attrs"] == {"backlog": 3, "plans": 2, "profit_j": 1.5}
        (ev,) = row["events"]
        assert ev["name"] == "sortie.assigned"
        assert ev["rv_id"] == 0
        assert ev["clusters"] == [1, 2]  # tuples coerce at record time
        assert [e.kind for e in log.events] == [
            EventKind.SORTIE_ASSIGNED, EventKind.RV_ARRIVED,
        ]

    def test_event_without_open_span_is_dropped(self):
        log = EventLog()
        log.mark("orphan")
        assert log.span_rows() == []
        assert [m["name"] for m in log.marks] == ["orphan"]

    def test_attrs_json_safe_coercion(self):
        np = pytest.importorskip("numpy")
        log = EventLog()
        with log.phase("s", n=np.int64(4), x=np.float64(0.5), seq=(1, np.int32(2))):
            pass
        attrs = log.span_rows()[0]["attrs"]
        assert attrs == {"n": 4, "x": 0.5, "seq": [1, 2]}
        assert type(attrs["n"]) is int and type(attrs["x"]) is float
        json.dumps(attrs)

    def test_jsonl_round_trip_byte_identical(self, tmp_path):
        log = EventLog()
        with log.phase("run", seed=3):
            with log.phase("tick", t=0.25):
                log.mark("invariant.violation", invariant="x", t_sim=0.25)
        path = tmp_path / "spans.jsonl"
        path.write_text("\n".join(log.span_lines()) + "\n")
        original = path.read_text()
        loaded = load_spans(path)
        assert loaded == log.span_rows()
        assert "".join(json.dumps(row) + "\n" for row in loaded) == original

    def test_load_spans_from_lines_and_fileobj(self, tmp_path):
        log = EventLog()
        with log.phase("a"):
            pass
        lines = log.span_lines()
        assert load_spans(lines) == log.span_rows()
        path = tmp_path / "s.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with open(path) as f:
            assert load_spans(f) == log.span_rows()

    def test_absorb_renumbers_and_reroots(self):
        worker = EventLog()
        with worker.phase("run", seed=9):
            with worker.phase("tick"):
                pass
        parent = EventLog()
        with parent.phase("executor.map") as sweep:
            parent.absorb(worker.span_rows(), parent=sweep,
                          root_attrs={"cell": 0, "cache": "miss"})
        rows = parent.span_rows()
        assert [(r["id"], r["parent"], r["name"]) for r in rows] == [
            (1, None, "executor.map"),
            (2, 1, "run"),
            (3, 2, "tick"),
        ]
        assert rows[1]["attrs"] == {"seed": 9, "cell": 0, "cache": "miss"}
        assert rows[2]["attrs"] == {}

    def test_absorb_without_parent_keeps_roots(self):
        worker = EventLog()
        with worker.phase("run"):
            pass
        log = EventLog()
        log.absorb(worker.span_rows())
        assert log.span_rows()[0]["parent"] is None


class TestNullTracer:
    """NULL_LOG: the shared disabled log records nothing."""

    def test_noop_surface(self):
        assert not NULL_LOG.enabled
        with NULL_LOG.phase("x", a=1) as sp:
            sp.set(b=2)
            NULL_LOG.mark("e")
            NULL_LOG.emit(0.0, EventKind.ROTATION, -1, 1.0, rv_id=0)
        NULL_LOG.sample(0.0, "x", 1.0)
        NULL_LOG.absorb([{"id": 1, "name": "x"}])
        assert NULL_LOG.span_rows() == []
        assert NULL_LOG.span_lines() == []
        assert list(NULL_LOG.to_jsonl_lines()) == []
        assert NULL_LOG.events == [] and NULL_LOG.series == {}
        assert NULL_LOG.marks == []

    def test_shared_singleton_span(self):
        assert NULL_LOG.phase("a") is NULL_LOG.phase("b")

    def test_write_jsonl_writes_nothing(self, tmp_path):
        NULL_LOG.write_files(tmp_path)
        assert (tmp_path / "events.jsonl").read_text() == ""
        assert (tmp_path / "spans.jsonl").read_text() == ""


class TestRenderTree:
    def test_empty(self):
        assert render_span_tree([]) == "(no spans recorded)"

    def test_aggregates_siblings_by_name(self):
        log = EventLog()
        with log.phase("run"):
            for t in (0.0, 1.0, 2.0):
                with log.phase("tick", t=t):
                    log.mark("beat")
                    with log.phase("energy.advance"):
                        pass
        text = render_span_tree(log.span_rows())
        lines = text.splitlines()
        assert lines[0].startswith("`- run  x1")
        assert any("tick  x3" in line and "[3 event(s)]" in line for line in lines)
        assert any("energy.advance  x3" in line for line in lines)

    def test_max_depth_truncates(self):
        log = EventLog()
        with log.phase("a"):
            with log.phase("b"):
                with log.phase("c"):
                    pass
        text = render_span_tree(log.span_rows(), max_depth=2)
        assert "b" in text and "c" not in text


class TestSpanTimerAgreement:
    """Phase timers are derived from the phase spans, so they agree
    exactly: one measurement per phase, not two."""

    def test_phase_totals_and_counts_match(self):
        from repro.sim.world import World

        cfg = tiny_config(sim_time_s=0.1 * DAY_S)
        log = EventLog()
        World(cfg, log=log).run()
        timers = log.snapshot(cfg.n_rvs)["timers"]
        rows = log.span_rows()
        for phase in ("energy.advance", "energy.recompute", "clusters.rebuild",
                      "gate.check", "fleet.dispatch", "scheduler.assign"):
            spans = [r for r in rows if r["name"] == phase]
            assert len(spans) == timers[phase]["count"], phase
            assert sum(r["t1"] - r["t0"] for r in spans) == timers[phase]["total_s"], phase
        assert "tick" not in timers and "relocate" not in timers

    def test_run_span_covers_whole_run(self):
        from repro.sim.world import World

        cfg = tiny_config()
        log = EventLog()
        World(cfg, log=log).run()
        rows = log.span_rows()
        (run_row,) = [r for r in rows if r["name"] == "run"]
        run_s = run_row["t1"] - run_row["t0"]
        world_run = log.snapshot(cfg.n_rvs)["timers"]["world.run"]
        assert (world_run["count"], world_run["total_s"]) == (1, run_s)
        # Child phases nest inside the run span.
        for r in rows:
            if r["parent"] == run_row["id"]:
                assert run_row["t0"] <= r["t0"] <= r["t1"] <= run_row["t1"]


def _structure(rows):
    return [(r["id"], r["parent"], r["name"]) for r in rows]


class TestExecutorSpanMerge:
    """`--jobs N` traces must read exactly like the serial one."""

    def configs(self):
        return [tiny_config(seed=s) for s in (1, 2, 3)]

    def test_jobs1_vs_jobs4_identical_structure(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        log1 = EventLog()
        serial = map_configs(self.configs(), jobs=1, log=log1)
        log4 = EventLog()
        pooled = map_configs(self.configs(), jobs=4, log=log4)
        assert [s.as_dict() for s in serial] == [s.as_dict() for s in pooled]
        assert _structure(log1.span_rows()) == _structure(log4.span_rows())
        # Attributes (cell tags, scheduler, seed) merge identically too;
        # only wall-clock readings and the sweep's `jobs` tag differ.
        for a, b in zip(log1.span_rows(), log4.span_rows()):
            drop = ("jobs",)
            assert {k: v for k, v in a["attrs"].items() if k not in drop} == \
                   {k: v for k, v in b["attrs"].items() if k not in drop}

    def test_cell_roots_are_tagged_and_ordered(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        log = EventLog()
        map_configs(self.configs(), jobs=2, log=log)
        rows = log.span_rows()
        sweep = rows[0]
        assert sweep["name"] == "executor.map"
        assert sweep["attrs"]["cells"] == 3
        cell_roots = [r for r in rows if r["name"] == "run"]
        assert [r["attrs"]["cell"] for r in cell_roots] == [0, 1, 2]
        assert all(r["parent"] == sweep["id"] for r in cell_roots)
        assert all(r["attrs"]["cache"] == "miss" for r in cell_roots)

    def test_summaries_identical_with_and_without_spans(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        plain = map_configs(self.configs(), jobs=1)
        traced = map_configs(self.configs(), jobs=1, log=EventLog())
        assert [s.as_dict() for s in plain] == [s.as_dict() for s in traced]

    def test_cache_hits_become_events(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        configs = self.configs()
        map_configs(configs, jobs=1)  # fill the store
        log = EventLog()
        map_configs(configs, jobs=1, log=log)
        rows = log.span_rows()
        sweep = rows[0]
        assert sweep["attrs"]["cache_hits"] == 3
        hits = [e for e in sweep["events"] if e["name"] == "executor.store_hit"]
        assert [e["cell"] for e in hits] == [0, 1, 2]
        assert all(r["name"] != "run" for r in rows[1:])

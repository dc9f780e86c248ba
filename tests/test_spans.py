"""Tests for repro.obs.spans: the hierarchical flight-recorder tracer.

Covers the tracer's parent/child bookkeeping, the byte-exact JSONL
round trip, the process-pool absorb/merge path (jobs=1 vs jobs=4 must
produce structurally identical traces), the null fast path, and the
report-side tree renderer.
"""

import json

import pytest

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    SpanTracer,
    load_spans,
    render_span_tree,
    spans_to_jsonl_lines,
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
    def test_parent_child_ids(self):
        tr = SpanTracer()
        with tr.span("run") as run:
            with tr.span("tick") as tick:
                with tr.span("energy.advance") as adv:
                    pass
            with tr.span("tick") as tick2:
                pass
        rows = tr.to_rows()
        assert [r["id"] for r in rows] == [1, 2, 3, 4]
        assert [r["parent"] for r in rows] == [None, 1, 2, 1]
        assert run.span_id == 1 and tick.span_id == 2
        assert adv.parent_id == tick.span_id
        assert tick2.parent_id == run.span_id

    def test_timing_is_nested(self):
        tr = SpanTracer()
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                pass
        assert outer.t0 <= inner.t0 <= inner.t1 <= outer.t1
        assert outer.duration_s >= inner.duration_s >= 0.0

    def test_attrs_and_events(self):
        tr = SpanTracer()
        with tr.span("dispatch", backlog=3) as sp:
            sp.set(plans=2, profit_j=1.5)
            tr.event("sortie.assigned", rv_id=0, clusters=(1, 2))
        row = tr.to_rows()[0]
        assert row["attrs"] == {"backlog": 3, "plans": 2, "profit_j": 1.5}
        (ev,) = row["events"]
        assert ev["name"] == "sortie.assigned"
        assert ev["rv_id"] == 0
        assert ev["clusters"] == [1, 2]  # tuples coerce at record time

    def test_event_without_open_span_is_dropped(self):
        tr = SpanTracer()
        tr.event("orphan")
        assert len(tr) == 0
        assert tr.current is None

    def test_attrs_json_safe_coercion(self):
        np = pytest.importorskip("numpy")
        tr = SpanTracer()
        with tr.span("s", n=np.int64(4), x=np.float64(0.5), seq=(1, np.int32(2))):
            pass
        attrs = tr.to_rows()[0]["attrs"]
        assert attrs == {"n": 4, "x": 0.5, "seq": [1, 2]}
        assert type(attrs["n"]) is int and type(attrs["x"]) is float
        json.dumps(attrs)

    def test_jsonl_round_trip_byte_identical(self, tmp_path):
        tr = SpanTracer()
        with tr.span("run", seed=3):
            with tr.span("tick", t=0.25) as sp:
                sp.event("invariant.violation", invariant="x", t_sim=0.25)
        path = tmp_path / "spans.jsonl"
        tr.write_jsonl(path)
        original = path.read_text()
        loaded = load_spans(path)
        assert loaded == tr.to_rows()
        assert "\n".join(spans_to_jsonl_lines(loaded)) + "\n" == original

    def test_load_spans_from_lines_and_fileobj(self, tmp_path):
        tr = SpanTracer()
        with tr.span("a"):
            pass
        lines = tr.to_jsonl_lines()
        assert load_spans(lines) == tr.to_rows()
        path = tmp_path / "s.jsonl"
        tr.write_jsonl(path)
        with open(path) as f:
            assert load_spans(f) == tr.to_rows()

    def test_absorb_renumbers_and_reroots(self):
        worker = SpanTracer()
        with worker.span("run", seed=9):
            with worker.span("tick"):
                pass
        parent = SpanTracer()
        with parent.span("executor.map") as sweep:
            parent.absorb(worker.to_rows(), parent=sweep,
                          root_attrs={"cell": 0, "cache": "miss"})
        rows = parent.to_rows()
        assert [(r["id"], r["parent"], r["name"]) for r in rows] == [
            (1, None, "executor.map"),
            (2, 1, "run"),
            (3, 2, "tick"),
        ]
        assert rows[1]["attrs"] == {"seed": 9, "cell": 0, "cache": "miss"}
        assert rows[2]["attrs"] == {}

    def test_absorb_without_parent_keeps_roots(self):
        worker = SpanTracer()
        with worker.span("run"):
            pass
        tr = SpanTracer()
        tr.absorb(worker.to_rows())
        assert tr.to_rows()[0]["parent"] is None


class TestNullTracer:
    def test_noop_surface(self):
        null = NullTracer()
        assert not null.enabled
        with null.span("x", a=1) as sp:
            sp.set(b=2)
            sp.event("e")
        null.event("e")
        assert null.to_rows() == []
        assert null.to_jsonl_lines() == []
        assert null.absorb([{"id": 1, "name": "x"}]) == []
        assert len(null) == 0
        assert null.current is None

    def test_shared_singleton_span(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")

    def test_write_jsonl_writes_nothing(self, tmp_path):
        path = tmp_path / "never.jsonl"
        NULL_TRACER.write_jsonl(path)
        assert not path.exists()


class TestRenderTree:
    def test_empty(self):
        assert render_span_tree([]) == "(no spans recorded)"

    def test_aggregates_siblings_by_name(self):
        tr = SpanTracer()
        with tr.span("run"):
            for t in (0.0, 1.0, 2.0):
                with tr.span("tick", t=t) as sp:
                    sp.event("beat")
                    with tr.span("energy.advance"):
                        pass
        text = render_span_tree(tr.to_rows())
        lines = text.splitlines()
        assert lines[0].startswith("`- run  x1")
        assert any("tick  x3" in line and "[3 event(s)]" in line for line in lines)
        assert any("energy.advance  x3" in line for line in lines)

    def test_max_depth_truncates(self):
        tr = SpanTracer()
        with tr.span("a"):
            with tr.span("b"):
                with tr.span("c"):
                    pass
        text = render_span_tree(tr.to_rows(), max_depth=2)
        assert "b" in text and "c" not in text


class TestSpanTimerAgreement:
    """Phase span totals must agree with the aggregate PhaseTimers."""

    def test_phase_totals_and_counts_match(self):
        from repro.obs import Instruments
        from repro.sim.world import World

        obs = Instruments()
        sp = SpanTracer()
        World(tiny_config(sim_time_s=0.1 * DAY_S), instruments=obs,
              spans=sp).run()
        timers = obs.snapshot()["timers"]
        rows = sp.to_rows()
        for phase in ("energy.advance", "energy.recompute", "clusters.rebuild",
                      "gate.check", "fleet.dispatch", "scheduler.assign"):
            spans = [r for r in rows if r["name"] == phase]
            assert len(spans) == timers[phase]["count"], phase
            span_total = sum(r["t1"] - r["t0"] for r in spans)
            # Each span opens inside its timer, so the span total is a
            # hair smaller; the gap is per-entry bookkeeping overhead.
            assert span_total <= timers[phase]["total_s"] + 1e-6, phase
            assert span_total == pytest.approx(
                timers[phase]["total_s"], rel=0.5, abs=5e-3
            ), phase

    def test_run_span_covers_whole_run(self):
        from repro.obs import Instruments
        from repro.sim.world import World

        obs = Instruments()
        sp = SpanTracer()
        World(tiny_config(), instruments=obs, spans=sp).run()
        (run_row,) = [r for r in sp.to_rows() if r["name"] == "run"]
        run_s = run_row["t1"] - run_row["t0"]
        assert run_s <= obs.snapshot()["timers"]["world.run"]["total_s"] + 1e-6
        # Child phases nest inside the run span.
        for r in sp.to_rows():
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
        sp1 = SpanTracer()
        serial = map_configs(self.configs(), jobs=1, spans=sp1)
        sp4 = SpanTracer()
        pooled = map_configs(self.configs(), jobs=4, spans=sp4)
        assert [s.as_dict() for s in serial] == [s.as_dict() for s in pooled]
        assert _structure(sp1.to_rows()) == _structure(sp4.to_rows())
        # Attributes (cell tags, scheduler, seed) merge identically too;
        # only wall-clock readings and the sweep's `jobs` tag differ.
        for a, b in zip(sp1.to_rows(), sp4.to_rows()):
            drop = ("jobs",)
            assert {k: v for k, v in a["attrs"].items() if k not in drop} == \
                   {k: v for k, v in b["attrs"].items() if k not in drop}

    def test_cell_roots_are_tagged_and_ordered(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        sp = SpanTracer()
        map_configs(self.configs(), jobs=2, spans=sp)
        rows = sp.to_rows()
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
        traced = map_configs(self.configs(), jobs=1, spans=SpanTracer())
        assert [s.as_dict() for s in plain] == [s.as_dict() for s in traced]

    def test_cache_hits_become_events(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        configs = self.configs()
        map_configs(configs, jobs=1)  # fill the store
        sp = SpanTracer()
        map_configs(configs, jobs=1, spans=sp)
        rows = sp.to_rows()
        sweep = rows[0]
        assert sweep["attrs"]["cache_hits"] == 3
        hits = [e for e in sweep["events"] if e["name"] == "executor.store_hit"]
        assert [e["cell"] for e in hits] == [0, 1, 2]
        assert all(r["name"] != "run" for r in rows[1:])

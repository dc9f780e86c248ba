"""The event log as the one source of a run's telemetry.

The parity oracle pins every artefact of one telemetry run (``small``,
2 days, seed 1, Combined-Scheme, ERP 0.6) to the values
the separate trace recorder, span tracer and live instruments produced
before they were merged into :class:`repro.obs.EventLog`: the
``events.jsonl`` bytes (events and samples), every counter and histogram,
the timer names and counts, the snapshot's key order and number types
(one sha256), and the span tree's structure.  The one
intended difference is the ``gate.backlog`` gauge, which used to keep
the backlog from before the last dispatch; it now reads the last
``backlog`` sample.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.obs import EventKind, EventLog, load_spans
from repro.sim.config import DAY_S, SimulationConfig
from repro.sim.runner import run_with_telemetry
from repro.sim.world import World

EVENTS_SHA256 = "10e9699a7310d855a88f118316d58d015037452f36c39efeb92c1ef95cd26540"

COUNTERS = {
    "monitors.violations": 0.0,
    "clusters.relocations": 16.0,
    "clusters.handoffs": 1096.0,
    "gate.requests_released": 107.0,
    "gate.recharges": 100.0,
    "energy.depletions": 0.0,
    "fleet.dispatch_rounds": 24.0,
    "fleet.sorties": 25.0,
    "fleet.legs": 100.0,
    "fleet.depot_returns": 0.0,
    "fleet.rv0.sorties": 17.0,
    "fleet.rv1.sorties": 8.0,
    "fleet.rv0.delivered_j": 35063.72674104359,
    "fleet.rv1.delivered_j": 9382.05022707932,
}

HISTOGRAMS = {
    "fleet.sortie_stops": {
        "count": 25, "total": 107.0, "min": 1.0, "max": 9.0, "mean": 4.28,
    },
    "fleet.delivered_j": {
        "count": 100,
        "total": 44445.77696812292,
        "min": 400.4643225441933,
        "max": 622.6866689466608,
        "mean": 444.4577696812292,
    },
}

TIMER_COUNTS = {
    "clusters.rebuild": 17,
    "gate.check": 328,
    "energy.recompute": 405,
    "energy.advance": 488,
    "fleet.dispatch": 24,
    "scheduler.assign": 24,
    "world.run": 1,
}

SPAN_NAMES = {
    "energy.advance": 488, "energy.recompute": 405, "gate.check": 328,
    "tick": 288, "dispatch_round": 24, "fleet.dispatch": 24,
    "scheduler.assign": 24, "clusters.rebuild": 17, "relocate": 16, "run": 1,
}
#: sha256 of the JSON list of (name, parent, attrs, event names) rows.
SPAN_STRUCTURE_SHA256 = "5fcb14d4de14d26b1c7493367419365bbe72d7986bf1a661483da9e253da310f"
#: sha256 of ``json.dumps`` (insertion order, no ``sort_keys``) of the
#: snapshot's counters, gauges and histograms plus each timer as
#: ``(name, count, row keys)``: pins key order and float-vs-int, which
#: the bytes of ``manifest.json`` depend on and ``==`` does not see.
SNAPSHOT_SHA256 = "7701e6a0cdb009c919afd85b2a8781997e7cded50aa6f0112d65d238ecd6e2a4"


@pytest.fixture(scope="module")
def parity_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("parity")
    cfg = SimulationConfig.small(
        scheduler="combined", erp=0.6, seed=1, sim_time_s=2 * DAY_S
    )
    _, manifest = run_with_telemetry(cfg, out)
    return out, manifest.instruments


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestTelemetryParity:
    def test_event_and_series_bytes(self, parity_run):
        out, _ = parity_run
        assert sha256(out / "events.jsonl") == EVENTS_SHA256

    def test_counters_and_histograms_exact(self, parity_run):
        _, snap = parity_run
        assert snap["counters"] == COUNTERS
        assert snap["histograms"] == HISTOGRAMS

    def test_snapshot_bytes(self, parity_run):
        _, snap = parity_run
        pinned = {
            "counters": snap["counters"],
            "gauges": snap["gauges"],
            "histograms": snap["histograms"],
            "timers": [
                (name, row["count"], list(row)) for name, row in snap["timers"].items()
            ],
        }
        digest = hashlib.sha256(json.dumps(pinned).encode()).hexdigest()
        assert digest == SNAPSHOT_SHA256

    def test_backlog_gauge_is_the_final_backlog(self, parity_run):
        _, snap = parity_run
        assert snap["gauges"] == {"gate.backlog": 0.0}

    def test_timer_names_and_counts(self, parity_run):
        _, snap = parity_run
        assert {k: v["count"] for k, v in snap["timers"].items()} == TIMER_COUNTS

    def test_span_structure(self, parity_run):
        out, _ = parity_run
        rows = load_spans(out / "spans.jsonl")
        assert Counter(r["name"] for r in rows) == SPAN_NAMES
        structure = [
            [r["name"], r["parent"], r["attrs"], [e["name"] for e in r["events"]]]
            for r in rows
        ]
        digest = hashlib.sha256(json.dumps(structure, sort_keys=True).encode()).hexdigest()
        assert digest == SPAN_STRUCTURE_SHA256


class TestBacklogGauge:
    @pytest.mark.parametrize("scheduler", ["greedy", "partition", "combined"])
    def test_gauge_matches_backlog_after_run(self, scheduler):
        cfg = SimulationConfig.small().with_overrides(seed=1, scheduler=scheduler)
        log = EventLog()
        world = World(cfg, log=log)
        world.run()
        gauge = log.snapshot(cfg.n_rvs)["gauges"]["gate.backlog"]
        assert gauge == len(world.state.requests)


class TestSnapshotDerivation:
    def test_recharges_credit_the_arriving_rv(self):
        log = EventLog()
        log.emit(0.0, EventKind.SORTIE_ASSIGNED, 0, 1.0)
        log.emit(0.0, EventKind.SORTIE_ASSIGNED, 1, 1.0)
        log.emit(1.0, EventKind.RV_ARRIVED, 1, 7.0)
        log.emit(2.0, EventKind.RV_ARRIVED, 0, 9.0)
        log.emit(3.0, EventKind.NODE_RECHARGED, 9, 10.0)
        log.emit(4.0, EventKind.NODE_RECHARGED, 7, 25.0)
        counters = log.snapshot(n_rvs=3)["counters"]
        assert counters["fleet.rv0.delivered_j"] == 10.0
        assert counters["fleet.rv1.delivered_j"] == 25.0
        assert counters["fleet.rv2.delivered_j"] == 0.0  # idle RVs show zeros
        assert counters["fleet.rv2.sorties"] == 0.0
        assert counters["gate.recharges"] == 2.0

    def test_empty_log_has_every_instrument(self):
        snap = EventLog().snapshot(n_rvs=1)
        assert set(snap["counters"]) == set(COUNTERS) - {
            "fleet.rv1.sorties", "fleet.rv1.delivered_j",
        }
        assert set(snap["timers"]) == set(TIMER_COUNTS)
        assert all(t["count"] == 0 for t in snap["timers"].values())
        assert snap["gauges"] == {"gate.backlog": 0.0}

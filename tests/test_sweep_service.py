"""The sweep service (repro.experiments.service) and its CLI.

A served sweep must be byte-identical to the serial executor after the
JSON hop, a second identical submission must be all store hits, and
the streaming primitives (`iter_configs` / `submit_grid`) must
reassemble grid order exactly.
"""

import json
import threading

import pytest

from repro.cli import main
from repro.experiments import ExperimentScale
from repro.experiments.executor import iter_configs, map_cells, submit_grid
from repro.experiments.service import (
    PROTOCOL_VERSION,
    ServiceError,
    SweepClient,
    SweepService,
)

TINY = ExperimentScale("tiny", days=1.0, seeds=(1, 2))
SCHEDS = ("greedy", "partition")
ERPS = (0.0, 0.5)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for var in ("REPRO_STORE", "REPRO_JOBS"):
        monkeypatch.delenv(var, raising=False)


@pytest.fixture
def served(tmp_path):
    """A live service on a tmp socket (serial jobs, store enabled)."""
    socket_path = tmp_path / "svc.sock"
    service = SweepService(
        socket_path, jobs=1, warm=False, store_dir=tmp_path / "store"
    )
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    client = SweepClient(socket_path, timeout_s=60.0)
    deadline = 50
    while not socket_path.exists() and deadline:
        threading.Event().wait(0.1)
        deadline -= 1
    yield service, client
    try:
        client.shutdown()
    except (ServiceError, OSError):
        pass
    thread.join(timeout=10.0)
    assert not thread.is_alive()


def _dumps(results):
    return json.dumps(
        {"|".join(map(str, k)): v.as_dict() for k, v in results.items()},
        sort_keys=True,
    )


class TestStreamingPrimitives:
    def test_iter_configs_streams_every_cell_once(self):
        cfg = TINY.base_config(scheduler="greedy", erp=0.2)
        configs = [cfg.with_overrides(seed=s) for s in TINY.seeds]
        rows = list(iter_configs(configs, jobs=1))
        assert sorted(i for i, _s, _src in rows) == [0, 1]
        assert all(src == "run" for _i, _s, src in rows)

    def test_submit_grid_matches_map_cells(self):
        job = submit_grid(TINY, SCHEDS, ERPS, jobs=1)
        streamed = [cell.key for cell in job]
        results = job.results()
        assert set(streamed) == set(results)
        assert job.sources == {"run": 8}
        serial = map_cells(TINY, SCHEDS, ERPS, jobs=1)
        assert _dumps(results) == _dumps(serial)
        assert list(results) == list(serial)  # grid order, not stream order

    def test_grid_job_results_after_partial_consumption(self):
        job = submit_grid(TINY, SCHEDS, ERPS, jobs=1)
        first = next(iter(job))
        assert first.source == "run"
        results = job.results()  # drains the rest
        assert len(results) == len(job.keys)


class TestService:
    def test_ping(self, served):
        _service, client = served
        answer = client.ping()
        assert answer["ok"] and answer["protocol"] == PROTOCOL_VERSION
        assert answer["jobs"] == 1

    def test_served_sweep_byte_identical_and_store_backed(self, served):
        service, client = served
        first = client.submit_grid(TINY, SCHEDS, ERPS)
        r1 = first.results()
        assert first.sources == {"run": 8}
        assert first.done["cells"] == 8

        second = client.submit_grid(TINY, SCHEDS, ERPS)
        r2 = second.results()
        assert second.sources == {"store": 8}

        serial = map_cells(TINY, SCHEDS, ERPS, jobs=1)
        assert _dumps(r1) == _dumps(serial)
        assert _dumps(r2) == _dumps(serial)
        assert service.store.stats["hits"] == 8

    def test_submit_configs_roundtrip(self, served):
        _service, client = served
        cfg = TINY.base_config(scheduler="greedy", erp=0.2)
        configs = [cfg.with_overrides(seed=s) for s in TINY.seeds]
        grid = client.submit_configs(configs)
        results = grid.results()
        assert set(results) == {("greedy", 0.2, 1), ("greedy", 0.2, 2)}

    def test_stats_op(self, served):
        _service, client = served
        client.submit_grid(TINY, ("greedy",), (0.0,)).results()
        stats = client.stats()
        assert stats["ok"] and stats["jobs"] == 1
        assert stats["counters"]["executor.cells"] == 2
        assert stats["store"]["puts"] == 2

    def test_unknown_op_reports_error(self, served):
        _service, client = served
        with pytest.raises(ServiceError, match="unknown op"):
            client._request_one({"op": "frobnicate"})

    def test_bad_submission_reports_error_not_crash(self, served):
        _service, client = served
        with pytest.raises(ServiceError, match="KeyError"):
            client._request_one({"op": "submit_grid"})  # missing fields
        assert client.ping()["ok"]  # service survived


def _extract_json(text):
    """The JSON object embedded in captured stdout — the server thread
    shares the capture, so its status lines (brace-free) may interleave."""
    return json.loads(text[text.index("{") : text.rindex("}") + 1])


class TestServiceCLI:
    def test_serve_and_submit_json(self, tmp_path, capsys):
        socket_path = tmp_path / "cli.sock"
        server = threading.Thread(
            target=main,
            args=([
                "serve", "--socket", str(socket_path), "--jobs", "1",
                "--store", str(tmp_path / "store"), "--max-requests", "2",
            ],),
            daemon=True,
        )
        server.start()
        deadline = 50
        while not socket_path.exists() and deadline:
            threading.Event().wait(0.1)
            deadline -= 1

        argv = [
            "submit", "--socket", str(socket_path), "--quiet", "--json",
            "--schedulers", "greedy", "--erps", "0.0", "--seeds", "1,2",
            "--days", "1.0",
        ]
        assert main(argv) == 0
        first = _extract_json(capsys.readouterr().out)
        assert first["sources"] == {"run": 2}
        assert set(first["results"]) == {"greedy:0:1", "greedy:0:2"}

        assert main(argv) == 0
        second = _extract_json(capsys.readouterr().out)
        assert second["sources"] == {"store": 2}
        assert second["results"] == first["results"]
        server.join(timeout=10.0)  # --max-requests 2 ends the accept loop
        assert not server.is_alive()

    def test_submit_without_server_exits_2(self, tmp_path, capsys):
        code = main(["submit", "--socket", str(tmp_path / "nope.sock"), "--quiet"])
        assert code == 2
        assert "is `repro serve" in capsys.readouterr().err

    def test_serve_rejects_bad_jobs(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--socket", str(tmp_path / "s.sock"), "--jobs", "zero"])

    def test_jobs_auto_parses(self):
        from repro.cli import _jobs_type

        assert _jobs_type("auto") >= 1
        assert _jobs_type("3") == 3
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _jobs_type("0")
        with pytest.raises(argparse.ArgumentTypeError):
            _jobs_type("many")

"""Shared helpers for the benchmark suite.

Each benchmark *prints and persists* its own table under
``benchmarks/results/``: the ASCII table as ``<name>.txt`` and a
machine-readable ``BENCH_<name>.json`` companion carrying the scale and
a capped perf-history trail.

Scale selection: set ``REPRO_SCALE`` to ``smoke`` (CI), ``bench``
(default) or ``paper``.  The paper's figure tables are not benchmarks:
``scripts/run_experiments.py`` generates them and
``tests/test_paper_figures.py`` asserts their shapes.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Any, Dict, List, Optional

from repro.obs.manifest import git_revision

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Rows kept in each ``BENCH_*.json`` ``"history"`` list (oldest trimmed).
HISTORY_MAX = 200


def emit(name: str, table: str, extra: Optional[Dict[str, Any]] = None) -> None:
    """Print a figure table and persist it under benchmarks/results/.

    Writes the human table as ``<name>.txt`` and a machine-readable
    ``BENCH_<name>.json`` (table and scale).  ``extra`` merges
    additional JSON-serializable fields into the payload (the
    wall-clock benchmarks record speedups and worker counts this way).

    Every call also appends a summary row (UTC timestamp, git revision,
    scale, and any ``speedup*``, ``t_*`` or ``overhead*`` fields from
    ``extra``) to the file's ``"history"`` list, preserved across runs
    — so perf trends are machine-readable without scraping old CI logs,
    and ``repro drift BENCH_<name>.json`` can diff the last two rows.
    The list is capped at :data:`HISTORY_MAX` rows (newest kept), so
    long-lived checkouts don't grow the json files without bound.
    """
    print("\n" + table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(table + "\n")
    json_path = RESULTS_DIR / f"BENCH_{name}.json"
    payload: Dict[str, Any] = {
        "name": name,
        "scale": os.environ.get("REPRO_SCALE", "bench"),
        "table": table,
    }
    if extra:
        payload.update(extra)
    payload["history"] = _previous_history(json_path)
    payload["history"].append(_history_row(payload))
    payload["history"] = payload["history"][-HISTORY_MAX:]
    json_path.write_text(json.dumps(payload, indent=2) + "\n")


def _previous_history(json_path: pathlib.Path) -> List[Dict[str, Any]]:
    """The ``"history"`` rows of an earlier ``BENCH_*.json``, if any."""
    try:
        previous = json.loads(json_path.read_text())
    except (OSError, ValueError):
        return []
    history = previous.get("history", [])
    return history if isinstance(history, list) else []


def _history_row(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One machine-readable summary row for the history trail."""
    row: Dict[str, Any] = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_rev": git_revision(pathlib.Path(__file__).parent),
        "scale": payload["scale"],
    }
    for key, value in payload.items():
        if (key.startswith("speedup") or key == "speedups"
                or key.startswith("t_") or key.startswith("overhead")):
            row[key] = value
    return row

"""The run path imports numpy and ``repro``, never scipy or networkx.

scipy and networkx stay declared dependencies (confidence intervals and
the ``Topology.to_networkx`` view load them on first use), but a CLI
start, a simulation and a store-backed sweep must not pay their import
cost.  Checked in a fresh interpreter so no other test's imports leak
into ``sys.modules``.
"""

import json
import os
import subprocess
import sys

CODE = """
import json, sys, tempfile
import repro.cli
from repro import SimulationConfig, run_simulation
from repro.experiments import ExperimentScale
from repro.experiments.executor import map_cells
from repro.experiments.store import ResultStore
from repro.sim.config import DAY_S

run_simulation(SimulationConfig.small(sim_time_s=0.25 * DAY_S))
with tempfile.TemporaryDirectory() as tmp:
    cells = map_cells(
        ExperimentScale("hygiene", days=0.25, seeds=(1,)),
        ("greedy",), (0.0,), jobs=1, store=ResultStore(tmp),
    )
heavy = sorted(
    m for m in sys.modules
    if m.split(".")[0] in ("scipy", "networkx")
)
print(json.dumps({"cells": len(cells), "heavy": heavy}))
"""


def test_run_path_never_imports_scipy_or_networkx():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run(
        [sys.executable, "-c", CODE],
        capture_output=True, text=True, env=env, check=True,
    )
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report == {"cells": 1, "heavy": []}

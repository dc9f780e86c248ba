"""What a process imports: numpy and the parts of ``repro`` it runs.

scipy stays a declared dependency (confidence intervals load it on
first use) and networkx a test-only one (the Dijkstra cross-check's
graph, ``oracles.to_networkx``), but a CLI start, a simulation and a
store-backed sweep must load neither.  A plain ``repro run`` also
imports none of the ``repro`` modules it does not execute: the recorder
stack, the span reader, the exact solvers, the extension schedulers,
the 2-opt pass, the experiment drivers, the estimators, the
visualisation and the table renderer load only on the paths that use
them.  Each check runs in a fresh interpreter so no other test's
imports leak into ``sys.modules``.
"""

import json
import os
import re
import subprocess
import sys

#: Modules a plain ``repro run --json`` must not import (a package
#: entry also covers its submodules).  The perf-smoke CI job greps
#: ``python -X importtime`` output for the same pattern.
RUN_DENY = re.compile(
    r"repro\.("
    r"obs\.(blackbox|monitors|manifest|drift|report|spans)"
    r"|core\.(mip|extensions)"
    r"|tsp\.two_opt"
    r"|experiments|analysis|viz"
    r"|sim\.replay"
    r"|utils\.(tables|profiling|stats)"
    r")(\.|$)"
)

SWEEP_CODE = """
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

RUN_CODE = """
import contextlib, io, json, sys
import repro.cli

out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = repro.cli.main(["run", "--preset", "small", "--days", "0.25", "--json"])
summary = json.loads(out.getvalue())["summary"]
print(json.dumps({"rc": rc, "sorties": summary["n_sorties"],
                  "modules": sorted(sys.modules)}))
"""


def _fresh(code):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_run_path_never_imports_scipy_or_networkx():
    assert _fresh(SWEEP_CODE) == {"cells": 1, "heavy": []}


def test_cli_run_imports_only_what_it_executes():
    report = _fresh(RUN_CODE)
    assert report["rc"] == 0 and report["sorties"] > 0
    modules = report["modules"]
    assert "repro.sim.world" in modules and "repro.core.combined" in modules
    assert [m for m in modules if RUN_DENY.match(m)] == []
    assert [m for m in modules if m.split(".")[0] in ("scipy", "networkx")] == []


def test_deny_pattern_matches_what_it_names():
    for name in ("repro.obs.blackbox", "repro.core.mip", "repro.experiments",
                 "repro.experiments.executor", "repro.viz.svg", "repro.sim.replay",
                 "repro.utils.tables", "repro.obs.spans", "repro.tsp.two_opt"):
        assert RUN_DENY.match(name), name
    for name in ("repro.obs.log", "repro.tsp.tour", "repro.core.combined",
                 "repro.sim.runner", "repro.utils", "repro.obs.blackboxes"):
        assert not RUN_DENY.match(name), name

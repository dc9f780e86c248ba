"""The lazy package namespaces keep the eager public API.

The packages resolve their ``__all__`` names from submodules on first
access (:mod:`repro._lazy`); every name must still be the very object
its submodule defines, star-imports must bind all of them, and unknown
names must fail the way they do on any module.  The registries must
list their built-ins whatever has been imported.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

LAZY = [
    "repro",
    "repro.core",
    "repro.experiments",
    "repro.mobility",
    "repro.network",
    "repro.obs",
    "repro.sim",
    "repro.utils",
]

SCHEDULER_NAMES = (
    "greedy", "insertion", "partition", "combined",
    "fcfs", "nearest", "insertion+2opt", "deadline",
)
EXPORTER_NAMES = ("jsonl", "prometheus", "csv", "spans", "sqlite")


def _submodules(package):
    pkg = importlib.import_module(package)
    for info in pkgutil.walk_packages(pkg.__path__, package + "."):
        if info.name.rsplit(".", 1)[-1].startswith("_"):
            continue
        yield importlib.import_module(info.name)


@pytest.mark.parametrize("package", LAZY)
def test_every_name_is_its_submodule_object(package):
    pkg = importlib.import_module(package)
    definers = {}
    for mod in _submodules(package):
        for name in getattr(mod, "__all__", ()):
            definers.setdefault(name, []).append(mod)
    for name in pkg.__all__:
        if name.startswith("__"):
            continue
        assert definers.get(name), f"no submodule of {package} exports {name!r}"
        value = getattr(pkg, name)
        assert any(getattr(mod, name) is value for mod in definers[name]), name
        home = getattr(value, "__module__", None)
        if home in sys.modules and home.startswith(package + "."):
            # Two submodules may export the same name (the panels of
            # Figs. 6 and 7): the package's is the one its class or
            # function was defined in.
            assert getattr(sys.modules[home], name) is value, f"{package}.{name} != {home}"


@pytest.mark.parametrize("package", LAZY)
def test_star_import_binds_every_name(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    pkg = importlib.import_module(package)
    assert set(pkg.__all__) <= set(namespace)
    assert set(pkg.__all__) <= set(dir(pkg))


@pytest.mark.parametrize("package", LAZY)
def test_unknown_name_raises_attribute_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name
    assert not hasattr(pkg, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})


def test_from_import_of_a_submodule_still_works():
    from repro.experiments import executor
    from repro.sim import world

    assert executor.__name__ == "repro.experiments.executor"
    assert world.World is importlib.import_module("repro").World


def test_registries_list_builtins_in_a_fresh_interpreter():
    code = (
        "import json\n"
        "from repro.registry import EXPORTERS, SCHEDULERS\n"
        "print(json.dumps([list(SCHEDULERS.names()), list(EXPORTERS.names())]))\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
    )
    schedulers, exporters = json.loads(out.stdout)
    assert tuple(schedulers) == SCHEDULER_NAMES
    assert tuple(exporters) == EXPORTER_NAMES


def test_builtin_factories_build_their_classes():
    from repro.obs import exporters
    from repro.registry import EXPORTERS, SCHEDULERS

    assert type(EXPORTERS.build("sqlite")) is exporters.SqliteExporter
    assert type(EXPORTERS.build("jsonl")) is exporters.JsonlExporter
    from repro.core.extensions import DeadlineAwareScheduler
    from repro.core.partition import PartitionScheduler

    assert type(SCHEDULERS.build("deadline", fleet_size=2)) is DeadlineAwareScheduler
    assert type(SCHEDULERS.build("partition", fleet_size=0)) is PartitionScheduler


def test_plugin_exporter_shows_in_run_help(capsys):
    from repro.cli import main
    from repro.registry import EXPORTERS

    EXPORTERS.register("test-plugin-fmt", lambda: None, doc="test plugin")
    try:
        with pytest.raises(SystemExit):
            main(["run", "--help"])
    finally:
        EXPORTERS.unregister("test-plugin-fmt")
    assert "test-plugin-fmt" in capsys.readouterr().out


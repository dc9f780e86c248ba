"""API-surface tests: every public name resolves, every subpackage
imports, every ``__all__`` is honest, and public callables carry
docstrings."""

import importlib
import inspect

import pytest

SUBPACKAGES = [
    "repro",
    "repro.analysis",
    "repro.cluster",
    "repro.core",
    "repro.energy",
    "repro.experiments",
    "repro.geometry",
    "repro.mobility",
    "repro.network",
    "repro.sim",
    "repro.sim.components",
    "repro.tsp",
    "repro.utils",
    "repro.viz",
]

MODULES = [
    "repro.cli",
    "repro.core.activation",
    "repro.core.clustering",
    "repro.core.combined",
    "repro.core.erc",
    "repro.core.extensions",
    "repro.core.greedy",
    "repro.core.insertion",
    "repro.core.kernels",
    "repro.core.mip",
    "repro.core.partition",
    "repro.core.profit",
    "repro.core.requests",
    "repro.core.scheduling",
    "repro.energy.battery",
    "repro.energy.consumption",
    "repro.energy.recharge",
    "repro.experiments.executor",
    "repro.experiments.pool",
    "repro.experiments.store",
    "repro.geometry.coverage",
    "repro.geometry.field",
    "repro.geometry.points",
    "repro.mobility.targets",
    "repro.mobility.vehicles",
    "repro.mobility.waypoint",
    "repro.network.dijkstra",
    "repro.network.linkquality",
    "repro.network.routing",
    "repro.network.topology",
    "repro.network.traffic",
    "repro.registry",
    "repro.sim.components.clusters",
    "repro.sim.components.energy",
    "repro.sim.components.fleet",
    "repro.sim.components.gate",
    "repro.sim.components.state",
    "repro.sim.config",
    "repro.sim.engine",
    "repro.sim.metrics",
    "repro.sim.runner",
    "repro.sim.serialization",
    "repro.sim.trace",
    "repro.sim.world",
    "repro.tsp.nearest_neighbor",
    "repro.tsp.tour",
    "repro.tsp.two_opt",
    "repro.utils.profiling",
    "repro.utils.stats",
    "repro.utils.tables",
    "repro.viz.ascii",
    "repro.viz.svg",
]


@pytest.mark.parametrize("name", SUBPACKAGES + MODULES)
def test_module_imports_and_has_docstring(name):
    mod = importlib.import_module(name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", SUBPACKAGES + MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    for public in getattr(mod, "__all__", []):
        assert hasattr(mod, public), f"{name}.__all__ lists missing {public!r}"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    mod = importlib.import_module(name)
    for public in getattr(mod, "__all__", []):
        obj = getattr(mod, public)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__doc__ and obj.__doc__.strip(), f"{name}.{public} lacks a docstring"


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_top_level_reexports():
    import repro

    for public in repro.__all__:
        if public.startswith("__"):
            continue
        assert hasattr(repro, public)

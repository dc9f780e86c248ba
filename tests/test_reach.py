"""Every public name has a caller outside the tests.

Static: the sources are parsed, nothing is run.  A name in the
``__all__`` of a ``repro`` package must be referenced by name in
``src/`` outside the module that defines it (the packages' ``__init__``
re-exports do not count), or in ``examples/`` or ``scripts/``.  A name
that only the tests reach is a second implementation kept alive by its
own tests: it belongs in ``tests/oracles.py`` as a reference, or
nowhere.  The public names with no such caller are listed in
:data:`PUBLIC_API`, each with the reason it stays.

``docs/api_overview.md`` lists exactly the ``__all__`` names: one bullet
per name under the heading of its package, or of a module that has a
section of its own.
"""

import ast
import importlib
import re
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
API_DOC = ROOT / "docs" / "api_overview.md"

PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC.parent).parts) for init in SRC.rglob("__init__.py")
)

_SAME_MODULE = "called only inside its own module, exported for callers outside the repo"

#: Public names no other module, example or script references, and why
#: each stays.
PUBLIC_API = {
    # Documented entry points (README) and the plug-in API.
    "make_scheduler": "README API: build a registered scheduler by name",
    "run_seeds": "README API: one configuration under several seeds",
    "Registry": "plug-in API: a named component table of one's own",
    "ComponentSpec": "plug-in API: what Registry.spec(name) returns",
    "Timer": "stopwatch context manager for user timing",
    # The paper's equations, bounds and constants.
    "minimum_sensors_eq1": "paper Eq. (1): sensors needed for full coverage",
    "hexagon_covering_bound": "the classical covering bound Eq. (1) is compared with",
    "erc_travel_energy_bound": "paper Section IV-B: travel energy bound of one ERC cycle",
    "wcss": "paper Eq. (15), the objective the Partition-Scheme's K-means minimises",
    "CC2480_RADIO": "paper Table II radio constants",
    "PIR_DETECTOR": "paper Table II detector constants",
    "PAPER_NODE_POWER": "paper Table II node power model",
    # The exact solvers of the MIP formulation (Section IV).
    "verify_routes": "checks a schedule against the MIP constraints (3)-(9)",
    "solve_exact_fleet": "exact multi-RV optimum, the yardstick for the heuristics",
    "ExactSolution": "the result type of solve_exact_single_rv",
    "FleetSolution": "the result type of solve_exact_fleet",
    # Statistics for verdicts over seeds.
    "run_cell_stats": "per-metric seed statistics of one experiment cell",
    "t_confidence_interval": "Student-t interval behind summarize_runs",
    # Result and row types.
    "KMeansResult": "the result type of kmeans",
    "Span": "the span-tree row type of EventLog",
    "TraceEvent": "the span-event row type of EventLog",
    # Closed-form estimators bundled by DeploymentModel (`repro estimate`).
    "coverage_probability": _SAME_MODULE,
    "expected_cluster_size": _SAME_MODULE,
    "fleet_size_lower_bound": _SAME_MODULE,
    "full_time_member_power_w": _SAME_MODULE,
    "request_rate_per_day": _SAME_MODULE,
    "rr_member_power_w": _SAME_MODULE,
    "threshold_crossing_interval_s": _SAME_MODULE,
    # Steps of a run-path function in the same module.
    "default_jobs": _SAME_MODULE,
    "iter_configs": _SAME_MODULE,
    "sweep_grid": _SAME_MODULE,
    "format_headline": _SAME_MODULE,
    "headline_claims": _SAME_MODULE,
    "etx_weights": _SAME_MODULE,
    "digest_rng": _SAME_MODULE,
    # Tour utilities next to open_tour_length.
    "tour_length": "closed-tour length, the counterpart of open_tour_length",
    "validate_tour": "permutation check for a tour",
    # Field-wide coverage, not only at the targets.
    "covered_fraction_grid": "grid estimate of the covered share of the whole field",
}


def _names_in(tree: ast.AST) -> set:
    """Every identifier a module mentions in code: names, attributes,
    imported names and string constants naming an object, as in the
    registry's ``"core.greedy:GreedyScheduler"`` loaders (docstrings and
    comments do not count)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            tail = node.value.rpartition(":")[2]
            if tail.isidentifier():
                out.add(tail)
    return out


def _defined_in(tree: ast.Module) -> set:
    """The names a module binds at its top level."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.add(node.target.id)
    return out


@lru_cache(maxsize=1)
def _index():
    """``(defined, used)``: per source file, the names it defines and
    the names it references; package ``__init__`` files define nothing
    and reference nothing (they only re-export)."""
    defined, used = {}, {}
    for path in [*SRC.rglob("*.py"), *ROOT.glob("examples/*.py"), *ROOT.glob("scripts/*.py")]:
        if path.name == "__init__.py" and SRC in path.parents:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined[path] = _defined_in(tree) if SRC in path.parents else set()
        used[path] = _names_in(tree)
    return defined, used


def _has_caller(name: str) -> bool:
    """Whether a file other than the one defining ``name`` references it."""
    defined, used = _index()
    return any(name in refs and name not in defined[path] for path, refs in used.items())


def unreached(exports: dict) -> list:
    """``package.name`` for every exported name without a caller that
    :data:`PUBLIC_API` does not list."""
    return [
        f"{package}.{name}"
        for package, names in exports.items()
        for name in names
        if not name.startswith("__") and name not in PUBLIC_API and not _has_caller(name)
    ]


def _exports() -> dict:
    return {pkg: list(importlib.import_module(pkg).__all__) for pkg in PACKAGES}


def _doc_sections() -> dict:
    """Module name -> the names bulleted in its ``## `repro...``` or
    ``### `repro...``` section; a bullet may name several, as in
    ``- `A` (class) / `b` (func) — ...``."""
    heading = re.compile(r"^#{2,3} `(repro(?:\.\w+)*)`")
    kind = r"(?:\s*\([^)]*\))?"  # "(class)", "(named tuple)", ...
    bullet = re.compile(rf"^- `([A-Za-z_]\w*)`({kind}(?:\s*/\s*`[A-Za-z_]\w*`{kind})*)")
    sections, current = {}, None
    lines = API_DOC.read_text(encoding="utf-8").splitlines() + [""]
    for line, following in zip(lines, lines[1:]):
        m = heading.match(line)
        if m:
            current = sections.setdefault(m.group(1), set())
        elif line.startswith("## "):
            current = None
        elif current is not None:
            # A bullet's list of names may wrap onto its next line.
            m = bullet.match(f"{line.rstrip()} {following.strip()}")
            if m:
                current.add(m.group(1))
                more = re.sub(r"\([^)]*\)", "", m.group(2))
                current.update(re.findall(r"`([A-Za-z_]\w*)`", more))
    return sections


DOC_MODULES = sorted(set(PACKAGES) | set(_doc_sections()))


def test_every_export_has_a_caller():
    missing = unreached(_exports())
    assert not missing, (
        f"exported but referenced only by the tests: {missing}; move each to "
        "tests/oracles.py, delete it, or list it in PUBLIC_API with its reason"
    )


def test_public_api_lists_only_unreached_exports():
    """An entry whose name gained a caller, or left every ``__all__``,
    is stale."""
    exported = {name for names in _exports().values() for name in names}
    stale = sorted(name for name in PUBLIC_API if name not in exported or _has_caller(name))
    assert not stale, f"PUBLIC_API entries with a caller or no export: {stale}"


def test_an_export_only_tests_reach_fails():
    """Reintroducing a removed relay-load copy to ``repro.network``'s
    exports is caught."""
    assert unreached({"repro.network": ["relay_rates"]}) == ["repro.network.relay_rates"]


@pytest.mark.parametrize("module", DOC_MODULES)
def test_api_overview_lists_exactly_the_exports(module):
    """Every package has a section; every section lists its module's
    ``__all__``, no more and no less."""
    sections = _doc_sections()
    assert module in sections, f"docs/api_overview.md has no section for {module}"
    exported = {n for n in importlib.import_module(module).__all__ if not n.startswith("__")}
    listed = sections[module]
    assert listed == exported, (
        f"{module}: undocumented {sorted(exported - listed)}, "
        f"documented but not exported {sorted(listed - exported)}"
    )

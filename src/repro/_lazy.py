"""Lazy package namespaces (PEP 562).

A package ``__init__`` that re-exports names from its submodules
imports every one of those submodules, and with them their imports,
whether or not the caller uses them.  The packages of ``repro``
instead declare where each public name lives and resolve it on first
access::

    from .._lazy import lazy_exports

    __all__ = ["World", "run_simulation"]
    __getattr__, __dir__ = lazy_exports(__name__, {
        ".world": ("World",),
        ".runner": ("run_simulation",),
    })

``from package import World`` and ``package.World`` import
``package.world`` on first use and cache the value as a package
global, so later lookups never reach ``__getattr__``.  A process then
imports only the submodules it touches: one ``repro run`` loads the
simulator, not the figure drivers, the recorder stack or the exact
solvers.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Iterable, List, Mapping, Tuple

__all__ = ["import_module", "lazy_exports"]


def import_module(name: str) -> Any:
    """The module ``name`` (absolute), imported if need be.

    Through ``__import__`` rather than :func:`importlib.import_module`:
    ``python -X importtime``, and so the benchmark's ``import.*``
    metrics and CI's import checks, only sees imports made that way.
    """
    __import__(name)
    return sys.modules[name]


def lazy_exports(
    package: str, table: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``table`` maps a submodule, relative to ``package`` (``".world"``,
    ``".sim.config"``), to the public names it defines.  An unknown
    name raises ``AttributeError``, which also lets ``from package
    import submodule`` fall through to the import system.

    A name that is also a submodule's name cannot be lazy: importing
    the submodule first would bind the module under that name.
    """
    where = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(package + module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__

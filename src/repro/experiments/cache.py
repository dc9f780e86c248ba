"""Cell keying and the executor's per-cell lookup.

Figure sweeps re-run many identical simulations (e.g. regenerating
Fig. 6a after 6b at the same scale).  Every completed cell can be kept
in a :class:`repro.experiments.store.ResultStore` (``REPRO_STORE=<dir>``
or an explicit ``store=`` argument), addressed by the SHA-256 of its
full serialized configuration *plus a code token* (the package version
and, when the package lives in a git checkout, the current commit) — so
a hit is always the same simulation produced by the same code, and
upgrading or editing the simulator invalidates stale cells instead of
replaying them.  Without a store, everything runs fresh.

The executor (:mod:`repro.experiments.executor`) answers every cell
through :func:`cache_lookup`, in the parent process, before it runs
anything.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, Optional

from ..obs.manifest import git_revision
from ..sim.config import SimulationConfig
from ..sim.metrics import SimulationSummary
from ..sim.serialization import config_to_dict

__all__ = [
    "cache_lookup",
    "canonical_json",
    "code_token",
    "config_key",
    "summary_from_dict",
]

#: The one sort-keys JSON encoder behind every cache key, blob digest
#: and blob: the text ``json.dumps(obj, sort_keys=True)`` gives, without
#: building a fresh :class:`json.JSONEncoder` per call.
canonical_json = json.JSONEncoder(sort_keys=True).encode


_CODE_TOKEN: Optional[Dict[str, Optional[str]]] = None


def code_token() -> Dict[str, Optional[str]]:
    """The code-identity part of the cache key, computed once.

    ``version`` is the installed package version; ``git_rev`` is the
    commit of the checkout the package is imported from (via the
    manifest helper, ``None`` outside a repository).  Together they make
    stored cells self-invalidating across code changes.
    """
    global _CODE_TOKEN
    if _CODE_TOKEN is None:
        from .. import __version__

        _CODE_TOKEN = {
            "version": __version__,
            "git_rev": git_revision(pathlib.Path(__file__).resolve().parent),
        }
    return _CODE_TOKEN


def config_key(config: SimulationConfig) -> str:
    """A stable content hash of the *complete* configuration + code.

    Two processes running the same code over the same configuration
    agree on the key; a different package version or git revision never
    collides with previously stored cells.
    """
    payload = canonical_json({"config": config_to_dict(config), "code": code_token()})
    return hashlib.sha256(payload.encode()).hexdigest()


def summary_from_dict(data: dict) -> SimulationSummary:
    """Rebuild a summary from its :meth:`SimulationSummary.as_dict`.

    Count-valued fields are restored to ints.
    """
    kwargs = dict(data)
    for int_field in ("n_recharges", "n_sorties", "n_requests", "events_fired"):
        kwargs[int_field] = int(kwargs[int_field])
    return SimulationSummary(**kwargs)


def cache_lookup(
    config: SimulationConfig, store, key: Optional[str] = None
) -> Optional[SimulationSummary]:
    """The stored summary for ``config``, or None (a miss, or no store).

    ``store`` is a :class:`repro.experiments.store.ResultStore` or None;
    it is read exactly once per call.  ``key`` is ``config``'s
    :func:`config_key` when the caller already holds it.
    """
    if store is None:
        return None
    return store.get(config, key)

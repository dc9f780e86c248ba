"""Run manifests: the provenance record written next to results.

A :class:`RunManifest` answers "what exactly produced these numbers?"
— the full configuration and its digest, the seed, the package version,
the git revision of the working tree (best-effort, read straight from
``.git`` without spawning a process), wall-clock cost, the instrument
snapshot and the exporter files.  ``manifest.json`` is written alongside
the telemetry exports, so archived runs stay self-describing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = ["RunManifest", "config_digest", "git_revision"]

MANIFEST_FILENAME = "manifest.json"


def config_digest(config: Dict[str, Any]) -> str:
    """A stable SHA-256 digest of a configuration dict.

    Keys are sorted so the digest depends on the configuration's
    *content*, not on dict ordering; two runs with equal digests and
    equal seeds are replays of each other.
    """
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def git_revision(start: Union[str, Path, None] = None) -> Optional[str]:
    """The current git commit hash, or ``None`` outside a repository.

    Reads ``.git/HEAD`` (and the ref it points to) directly — no
    subprocess, no git dependency — walking up from ``start``.
    """
    path = Path(start) if start is not None else Path.cwd()
    for candidate in [path, *path.parents]:
        git_dir = candidate / ".git"
        if not git_dir.is_dir():
            continue
        try:
            head = (git_dir / "HEAD").read_text().strip()
            if head.startswith("ref:"):
                ref = head.split(None, 1)[1]
                ref_file = git_dir / ref
                if ref_file.is_file():
                    return ref_file.read_text().strip()
                packed = git_dir / "packed-refs"
                if packed.is_file():
                    for line in packed.read_text().splitlines():
                        if line.endswith(" " + ref):
                            return line.split()[0]
                return None
            return head or None
        except OSError:
            return None
    return None


@dataclass(frozen=True)
class RunManifest:
    """Provenance + outcome of one telemetry-enabled run."""

    created_utc: str
    repro_version: str
    git_rev: Optional[str]
    seed: int
    config: Dict[str, Any]
    config_digest: str
    wall_time_s: float
    summary: Dict[str, float] = field(default_factory=dict)
    instruments: Dict[str, Any] = field(default_factory=dict)
    exporters: List[str] = field(default_factory=list)
    files: Dict[str, List[str]] = field(default_factory=dict)

    @classmethod
    def create(
        cls,
        config: Dict[str, Any],
        seed: int,
        wall_time_s: float,
        summary: Optional[Dict[str, float]] = None,
        instruments: Optional[Dict[str, Any]] = None,
        exporters: Optional[List[str]] = None,
        files: Optional[Dict[str, List[str]]] = None,
    ) -> "RunManifest":
        """Stamp a manifest for ``config``: digest, version, git rev, time."""
        from .. import __version__

        return cls(
            created_utc=datetime.now(timezone.utc).isoformat(),
            repro_version=__version__,
            git_rev=git_revision(),
            seed=seed,
            config=dict(config),
            config_digest=config_digest(config),
            wall_time_s=wall_time_s,
            summary=dict(summary or {}),
            instruments=dict(instruments or {}),
            exporters=list(exporters or []),
            files=dict(files or {}),
        )

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        """Load a manifest dict; keys this version does not know (such
        as the ``engine`` block earlier versions wrote) are ignored."""
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})

    def write(self, path: Union[str, Path]) -> Path:
        """Write the manifest as JSON; returns the path written.

        A directory path gets the conventional ``manifest.json`` name.
        """
        path = Path(path)
        if path.is_dir():
            path = path / MANIFEST_FILENAME
        path.write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        """Read a manifest from a JSON file (or a telemetry directory)."""
        path = Path(path)
        if path.is_dir():
            path = path / MANIFEST_FILENAME
        return cls.from_dict(json.loads(path.read_text()))

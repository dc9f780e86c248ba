"""Run manifests: the provenance record written next to results.

A :class:`RunManifest` answers "what exactly produced these numbers?"
— the full configuration and its digest, the seed, the package version,
the git revision of the working tree (best-effort, read straight from
``.git`` without spawning a process), wall-clock cost, the instrument
snapshot and the names of the log files beside it.  ``manifest.json``
is written last into the telemetry directory, so archived runs stay
self-describing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, asdict, dataclass, field
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
    files: List[str] = field(default_factory=list)

    @classmethod
    def create(
        cls,
        config: Dict[str, Any],
        seed: int,
        wall_time_s: float,
        summary: Optional[Dict[str, float]] = None,
        instruments: Optional[Dict[str, Any]] = None,
        files: Optional[List[str]] = None,
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
            files=list(files or []),
        )

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        """Load a manifest dict; keys this version does not know (such
        as the ``engine`` block or the ``exporters`` list earlier
        versions wrote) are ignored.

        Earlier versions indexed ``files`` per exporter
        (``{"jsonl": ["events.jsonl", ...], ...}``); that form loads as
        the flat list of its file names.  Raises ``ValueError`` for a
        non-object or a manifest missing a required field.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"a manifest is a JSON object, not {type(data).__name__}"
            )
        fields = cls.__dataclass_fields__
        missing = [
            name for name, f in fields.items()
            if name not in data and f.default is MISSING
            and f.default_factory is MISSING
        ]
        if missing:
            raise ValueError(f"manifest lacks {', '.join(missing)}")
        kwargs = {k: v for k, v in data.items() if k in fields}
        files = kwargs.get("files")
        if isinstance(files, dict):
            kwargs["files"] = [name for names in files.values() for name in names]
        return cls(**kwargs)

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
        """Read a manifest from a JSON file (or a telemetry directory).

        Raises ``OSError`` for an unreadable file and ``ValueError``
        naming the file for one that holds no manifest (truncated JSON,
        a non-object, a missing field).
        """
        path = Path(path)
        if path.is_dir():
            path = path / MANIFEST_FILENAME
        text = path.read_text()
        try:
            return cls.from_dict(json.loads(text))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

"""Content-addressed storage for designed pulses.

Every designed pulse is worth keeping: designs are expensive and their inputs
are fully deterministic, so a pulse is stored under a key derived from its
content (system, target, parameters).  Re-serializing an entry never changes
its key, and metadata like timestamps stays outside the hashed payload.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from .fockspace import SystemConfig, check_object, check_real, read_record
from .pulses import CompositePulse

__all__ = [
    "PulseLibraryEntry",
    "entry_id",
    "save_entry",
    "load_entry",
    "find_entry",
]

_SCHEMA_VERSION = 1

# The fields an entry document may hold (``save_entry`` writes them all), and
# those it must hold.
_ENTRY_KEYS = ("version", "id", "system", "target", "pulses", "loss", "meta", "created")
_REQUIRED_KEYS = ("system", "pulses", "target", "loss")

# A content key or a prefix of one; ``find_entry`` globs with it, so nothing
# else (a glob or path character, an empty string) may pass.
_KEY_RE = re.compile(r"[0-9a-f]{1,16}")


def _check_key(key: str) -> None:
    """Raise ValueError unless ``key`` is a content key or a prefix of one."""
    if not _KEY_RE.fullmatch(key):
        raise ValueError(f"pulse id must be 1 to 16 lowercase hex digits, got {key!r}")


@dataclass
class PulseLibraryEntry:
    """One stored pulse: the system it was designed on, for which target,
    the pulse train itself, and the loss it achieved."""

    system: SystemConfig
    target: str
    pulse: CompositePulse
    loss: float
    meta: dict[str, Any]

    @property
    def id(self) -> str:
        return entry_id(self.system, self.target, self.pulse)


def _hashed_payload(
    system: SystemConfig, target: str, pulse: CompositePulse
) -> dict[str, Any]:
    return {
        "system": asdict(system),
        "target": target,
        "pulses": pulse.to_dicts(),
    }


def entry_id(system: SystemConfig, target: str, pulse: CompositePulse) -> str:
    """Stable 16-hex-digit key of the entry's physical content."""
    canonical = json.dumps(
        _hashed_payload(system, target, pulse), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def save_entry(entry: PulseLibraryEntry, library_dir: Path | str) -> Path:
    """Write the entry as JSON under its content key; idempotent.

    An existing file for the same key is left untouched, so repeated runs of
    a deterministic design never churn bytes on disk.
    """
    library_dir = Path(library_dir)
    library_dir.mkdir(parents=True, exist_ok=True)
    path = library_dir / f"{entry.id}.json"
    if path.exists():
        return path
    document = {
        "version": _SCHEMA_VERSION,
        "id": entry.id,
        **_hashed_payload(entry.system, entry.target, entry.pulse),
        "loss": entry.loss,
        "meta": dict(entry.meta),
        "created": datetime.now(timezone.utc).isoformat(),
    }
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)
    return path


def load_entry(path: Path | str) -> PulseLibraryEntry:
    """Read an entry back; validates its fields, schema version and content key.

    Bad input of any kind (invalid JSON, a document or block that is not an
    object, an unknown or missing field, a bad value) raises ValueError
    naming the file.
    """
    try:
        return _read_entry(json.loads(Path(path).read_text()))
    except ValueError as exc:
        raise ValueError(f"pulse entry {path}: {exc}") from exc


def _read_entry(document: Any) -> PulseLibraryEntry:
    if not isinstance(document, dict):
        raise ValueError("must hold a JSON object")
    check_object("the document", document, _ENTRY_KEYS, _REQUIRED_KEYS)
    version = document.get("version")
    if version != _SCHEMA_VERSION:
        raise ValueError(f"unsupported pulse-library schema version {version!r}")
    system = read_record(SystemConfig, "'system'", document["system"])
    pulse = CompositePulse.from_dicts(document["pulses"])
    target = document["target"]
    if not isinstance(target, str):
        raise ValueError(f"'target' must be a string, got {target!r}")
    loss = document["loss"]
    check_real("loss", loss)
    meta = document.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"'meta' must be an object, got {meta!r}")
    stored_id = document.get("id")
    actual_id = entry_id(system, target, pulse)
    if stored_id != actual_id:
        raise ValueError(
            f"corrupt: stored id {stored_id!r} does not match content id {actual_id!r}"
        )
    return PulseLibraryEntry(
        system=system, target=target, pulse=pulse, loss=float(loss), meta=dict(meta)
    )


def find_entry(library_dir: Path | str, key: str) -> Path:
    """Resolve a (possibly abbreviated) content key to an entry path.

    ``key`` must be 1 to 16 lowercase hex digits, else ValueError.
    """
    _check_key(key)
    library_dir = Path(library_dir)
    matches = sorted(library_dir.glob(f"{key}*.json"))
    if not matches:
        raise FileNotFoundError(f"no pulse with id {key!r} in {library_dir}")
    if len(matches) > 1:
        raise ValueError(
            f"id {key!r} is ambiguous in {library_dir}: "
            + ", ".join(p.stem for p in matches)
        )
    return matches[0]

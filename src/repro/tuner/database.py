"""On-disk tuning database: persisted winners of past design-space searches.

Entries are keyed the same way as the PR-1 compilation cache — structural
program fingerprint × graph-schema fingerprint × feature dimensions × device ×
tuning mode (see :func:`repro.frontend.cache.make_tuning_key`) — so a second
``compile_model(..., tune=True)`` for the same key replays the stored winner
without re-searching, across processes.

The default database lives at ``~/.cache/repro/tuning_db.json`` (override
with the ``REPRO_TUNING_DB`` environment variable); pass an explicit path —
or ``path=None`` for a purely in-memory database — to keep tests and studies
isolated.  Writes are atomic (temp file + rename), and unreadable or
version-mismatched files are treated as empty rather than crashing the
compile path.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Optional, Union

from repro.frontend.config import CompilerOptions

#: Environment variable overriding the default on-disk location.
DB_PATH_ENV = "REPRO_TUNING_DB"

#: Bumped whenever the record layout changes; older files are ignored.
#: 2: the ``mixed`` backend's per-kernel assignment left the stored option dicts.
DB_FORMAT_VERSION = 2


def default_db_path() -> Path:
    """The on-disk location of the process-default tuning database."""
    override = os.environ.get(DB_PATH_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "tuning_db.json"


@dataclass
class TuningRecord:
    """The persisted winner of one design-space search.

    Attributes:
        options: :meth:`CompilerOptions.to_dict` of the winning configuration.
        estimated_ms: its cost-model time on the tuned workload.
        measured_ms: wall-clock milliseconds of the python backend, when the
            search validated the top candidates by measurement.
        candidates_evaluated: how many design-space points the search scored.
        search: search strategy (``"staged"`` or ``"exhaustive"``).
        created_at: UNIX timestamp of the search.
    """

    options: Dict[str, object]
    estimated_ms: float
    measured_ms: Optional[float] = None
    candidates_evaluated: int = 0
    search: str = "staged"
    created_at: float = 0.0

    def compiler_options(self) -> CompilerOptions:
        """The winning configuration as a :class:`CompilerOptions`."""
        return CompilerOptions.from_dict(dict(self.options))


@dataclass
class TuningDBStats:
    """Lookup/store counters of one :class:`TuningDatabase`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


class TuningDatabase:
    """Thread-safe, optionally disk-backed map from tuning keys to records."""

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self.path = Path(path) if path is not None else None
        self._records: Dict[str, TuningRecord] = {}
        self.stats = TuningDBStats()
        self._lock = threading.Lock()
        if self.path is not None and self.path.exists():
            self._load()

    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Optional[TuningRecord]:
        """Return the stored record for ``key``, recording a hit or miss."""
        with self._lock:
            record = self._records.get(key)
            if record is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            return record

    def store(self, key: str, record: TuningRecord) -> TuningRecord:
        """Store (and persist, when disk-backed) one search winner."""
        with self._lock:
            self._records[key] = record
            self.stats.stores += 1
            if self.path is not None:
                self._save()
            return record

    def clear(self) -> None:
        """Drop every record; a disk-backed database also deletes its file."""
        with self._lock:
            self._records.clear()
            self.stats = TuningDBStats()
            if self.path is not None and self.path.exists():
                self.path.unlink()

    def __len__(self) -> int:
        return len(self._records)

    def keys(self):
        return list(self._records)

    # ------------------------------------------------------------------
    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError):
            return
        if not isinstance(payload, dict) or payload.get("version") != DB_FORMAT_VERSION:
            return
        for key, raw in payload.get("records", {}).items():
            try:
                record = TuningRecord(**raw)
                record.compiler_options()  # validates the option fields
            except (TypeError, ValueError):
                continue
            self._records[key] = record

    def _save(self) -> None:
        payload = {
            "version": DB_FORMAT_VERSION,
            "records": {key: asdict(record) for key, record in self._records.items()},
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        temp = self.path.with_name(self.path.name + ".tmp")
        temp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        os.replace(temp, self.path)


# ----------------------------------------------------------------------
_GLOBAL_DB: Optional[TuningDatabase] = None
_GLOBAL_DB_LOCK = threading.Lock()


def default_tuning_database() -> TuningDatabase:
    """The process-default, disk-backed tuning database (lazily created).

    Re-resolved whenever :func:`default_db_path` changes, so setting
    ``REPRO_TUNING_DB`` after a first use redirects subsequent lookups
    instead of silently reusing the previously resolved location.
    """
    global _GLOBAL_DB
    with _GLOBAL_DB_LOCK:
        path = default_db_path()
        if _GLOBAL_DB is None or _GLOBAL_DB.path != path:
            _GLOBAL_DB = TuningDatabase(path)
        return _GLOBAL_DB


def clear_tuning_database() -> None:
    """Drop every persisted tuning entry (and the on-disk file)."""
    default_tuning_database().clear()


def record_from_search(result) -> TuningRecord:
    """Build the persisted record from a finished :class:`TuningResult`."""
    best = result.best
    return TuningRecord(
        options=best.options.to_dict(),
        estimated_ms=best.estimated_ms,
        measured_ms=best.measured_ms,
        candidates_evaluated=len(result.candidates),
        search=result.search,
        created_at=time.time(),
    )

"""Persistent on-disk cache for generated backend sources and code objects.

The whole-plan backends (``python-codegen``, ``mixed``) pay their cost at
compile time: walking the plan, rewriting kernel bodies, and ``compile()``-ing
the emitted source.  That work is deterministic in the compilation-cache key
(program fingerprint × options × graph schema) and the emitter revision, so a
warm *process* — one that compiled the same (plan, options, schema) in an
earlier run — can skip generation and source compilation entirely by loading
the artifact from disk.

Layout: one JSON file per artifact under ``~/.cache/repro/codegen/`` (or
``$REPRO_CODEGEN_CACHE``), holding the source text, its SHA-256, and the
``marshal``-serialised code object.  Loads verify the format version, the
interpreter version (``marshal`` is CPython-version-specific), and the source
hash; any mismatch or corruption is a miss — the artifact is regenerated,
never trusted — that also counts in ``stats()["corrupt"]`` and warns once
per process, so a damaged cache directory does not cost compile time
unnoticed.  Keys fold in a fingerprint of the emitter
modules themselves, so editing the generators invalidates stale artifacts
automatically.

Like the tuning database (``REPRO_TUNING_DB``), the environment override is
re-resolved on every :func:`default_artifact_cache` call, so tests and tools
can repoint the cache mid-process.
"""

from __future__ import annotations

import base64
import hashlib
import json
import marshal
import os
import sys
import threading
import warnings
from pathlib import Path
from types import CodeType
from typing import Callable, Dict, List, Optional, Tuple

#: Environment variable overriding the on-disk artifact directory.
CACHE_ENV = "REPRO_CODEGEN_CACHE"

#: Bumped when the on-disk record layout changes; old records become misses.
ARTIFACT_FORMAT_VERSION = 1

#: Whether this process has already warned about a corrupt artifact file.
_CORRUPT_WARNED = False
_CORRUPT_WARNED_LOCK = threading.Lock()


def _warn_corrupt_once(path: Path) -> None:
    global _CORRUPT_WARNED
    with _CORRUPT_WARNED_LOCK:
        if _CORRUPT_WARNED:
            return
        _CORRUPT_WARNED = True
    warnings.warn(
        f"corrupt codegen artifact {path} was regenerated; further corrupt files "
        "are counted in artifact_cache_stats()['corrupt'] without a warning",
        RuntimeWarning,
        stacklevel=3,
    )


def default_cache_dir() -> Path:
    """The artifact directory: ``$REPRO_CODEGEN_CACHE`` or ``~/.cache/repro/codegen``."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro" / "codegen"


_EMITTER_FINGERPRINT: Optional[str] = None


def emitter_module_paths() -> List[Path]:
    """Every module of this package, sorted: the files that fingerprint the source dialect.

    The whole package rather than a hand-kept list, so a new IR, pass or
    printer module can never be left out of the fingerprint.
    """
    return sorted(Path(__file__).parent.glob("*.py"))


def emitter_fingerprint() -> str:
    """Hash of the emitter module sources; editing a generator invalidates artifacts."""
    global _EMITTER_FINGERPRINT
    if _EMITTER_FINGERPRINT is None:
        digest = hashlib.sha256()
        for path in emitter_module_paths():
            try:
                digest.update(path.read_bytes())
            except OSError:
                digest.update(path.name.encode())
        _EMITTER_FINGERPRINT = digest.hexdigest()[:16]
    return _EMITTER_FINGERPRINT


def artifact_key_for(cache_key: object, extra: object = None) -> str:
    """Derive the on-disk artifact key from a compilation-cache key.

    ``cache_key`` is the :func:`repro.frontend.cache.make_cache_key` tuple
    (already a deterministic ``repr``-able value); ``extra`` distinguishes
    artifacts that share a compilation key but not a source — the ``mixed``
    backend's per-occupancy-signature variants.
    """
    payload = repr((ARTIFACT_FORMAT_VERSION, emitter_fingerprint(), cache_key, extra))
    return hashlib.sha256(payload.encode()).hexdigest()


class ArtifactCache:
    """One artifact directory plus hit/miss/store counters (thread-safe).

    ``corrupt`` counts the misses whose file existed but failed to parse or
    validate; a missing file is a plain miss.
    """

    def __init__(self, directory: Path | str):
        self.directory = Path(directory)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.stores = 0
        self.errors = 0

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> Optional[Tuple[str, CodeType]]:
        """Load ``(source, code)`` for ``key``, or ``None`` on any miss.

        Corrupt files, format/interpreter mismatches, and stale source
        hashes all count as misses — the caller regenerates; nothing here
        raises — and as ``corrupt``, with one ``RuntimeWarning`` per process.
        """
        try:
            raw = self._path(key).read_text()
        except OSError:
            with self._lock:
                self.misses += 1
            return None
        try:
            record = json.loads(raw)
            if record.get("version") != ARTIFACT_FORMAT_VERSION:
                raise ValueError("format version mismatch")
            if record.get("python") != list(sys.version_info[:2]):
                raise ValueError("interpreter version mismatch")
            source = record["source"]
            if not isinstance(source, str):
                raise ValueError("malformed source")
            digest = hashlib.sha256(source.encode()).hexdigest()
            if digest != record.get("source_sha"):
                raise ValueError("stale source hash")
            code = marshal.loads(base64.b64decode(record["code_b64"]))
            if not isinstance(code, CodeType):
                raise ValueError("not a code object")
        except Exception:
            with self._lock:
                self.misses += 1
                self.corrupt += 1
            _warn_corrupt_once(self._path(key))
            return None
        with self._lock:
            self.hits += 1
        return source, code

    def store(self, key: str, source: str, code: CodeType) -> None:
        """Persist an artifact atomically; filesystem errors are tolerated."""
        record = {
            "version": ARTIFACT_FORMAT_VERSION,
            "python": list(sys.version_info[:2]),
            "source_sha": hashlib.sha256(source.encode()).hexdigest(),
            "source": source,
            "code_b64": base64.b64encode(marshal.dumps(code)).decode("ascii"),
        }
        path = self._path(key)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(record))
            os.replace(tmp, path)
        except OSError:
            with self._lock:
                self.errors += 1
            return
        with self._lock:
            self.stores += 1

    def load_or_generate(
        self, key: Optional[str], filename: str, generate: Callable[[], str]
    ) -> Tuple[str, CodeType]:
        """The backend entry point: cached ``(source, code)`` or a fresh pair.

        ``key=None`` disables persistence (generation without a compilation
        key); otherwise a hit skips both ``generate()`` and ``compile()``.
        """
        if key is not None:
            cached = self.load(key)
            if cached is not None:
                return cached
        source = generate()
        code = compile(source, filename, "exec")
        if key is not None:
            self.store(key, source, code)
        return source, code

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "corrupt": self.corrupt,
                "stores": self.stores,
                "errors": self.errors,
            }


_GLOBAL_CACHE: Optional[ArtifactCache] = None
_GLOBAL_CACHE_LOCK = threading.Lock()


def default_artifact_cache() -> ArtifactCache:
    """The process-wide artifact cache for the resolved directory.

    Mirrors ``repro.tuner.database.default_tuning_database``: the environment
    override is re-read on every call, and a changed path swaps in a fresh
    cache (with fresh counters) bound to the new directory.
    """
    global _GLOBAL_CACHE
    with _GLOBAL_CACHE_LOCK:
        directory = default_cache_dir()
        if _GLOBAL_CACHE is None or _GLOBAL_CACHE.directory != directory:
            _GLOBAL_CACHE = ArtifactCache(directory)
        return _GLOBAL_CACHE


def artifact_cache_stats() -> Dict[str, int]:
    """Hit/miss/store counters of the current process-wide cache."""
    return default_artifact_cache().stats()


def load_source(
    key: Optional[str], filename: str, generate: Callable[[], str]
) -> Tuple[str, Dict[str, object]]:
    """Generate (or load from the process-wide cache) and ``exec`` one module's source.

    The one place generated source becomes callables: returns the source and
    the namespace its functions live in.
    """
    source, code = default_artifact_cache().load_or_generate(key, filename, generate)
    namespace: Dict[str, object] = {}
    exec(code, namespace)
    return source, namespace

"""The two-tier cache store and the process-wide active-store plumbing.

Tier 1 is an in-process LRU of *decoded* result objects: a repeated
call inside one process (``repro analyze`` runs Karp–Miller through
several sub-analyses) pays neither JSON decode nor object rebuild.
Tier 2 is an on-disk directory of schema-versioned JSON entries under
``~/.cache/repro`` (respecting ``XDG_CACHE_HOME`` and
``REPRO_CACHE_DIR``), shared across processes and sessions.

Disk entries are written atomically — serialise to a unique temp file
in the same directory, then ``os.replace`` — so parallel workers and
concurrent CLI invocations can race on the same key and the loser
simply overwrites with identical bytes.  Every entry carries a SHA-256
checksum of its payload; a truncated, tampered or schema-incompatible
entry is counted, unlinked and treated as a miss (silent recompute),
never surfaced as a crash or garbage result.

Entries live inside a ``v{CACHE_SCHEMA_VERSION}`` subdirectory, so a
schema bump orphans (rather than misreads) old entries; ``clear()``
sweeps every version directory.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import shutil
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from ..obs.metrics import get_metrics
from .fingerprint import _digest

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "ENTRY_KIND",
    "MISS",
    "CacheStore",
    "default_cache_dir",
    "active_store",
    "set_store",
    "use_store",
    "cache_disabled",
    "reset_store_from_env",
]

CACHE_SCHEMA_VERSION = 1
"""Entry layout version; bump procedure documented in docs/tutorial.md §12."""

ENTRY_KIND = "repro-analysis-cache"

_VERSION_DIR = re.compile(r"^v\d+$")


class _Miss:
    """Sentinel distinguishing 'not cached' from a cached ``None``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<cache miss>"


MISS = _Miss()


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME")
    if not xdg:
        xdg = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(xdg, "repro")


def payload_checksum(payload: Any) -> str:
    """Stable SHA-256 over a JSON-serialisable payload."""
    return _digest("repro-cache-payload", payload)


class CacheStore:
    """One cache location: in-process LRU over an on-disk entry directory.

    ``memory_entries=0`` disables the memory tier (every hit decodes
    from disk — what the warm benchmark workloads measure).
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        *,
        memory_entries: int = 256,
    ):
        self.directory = directory or default_cache_dir()
        self.memory_entries = memory_entries
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self._tmp_counter = itertools.count()

    # -- layout --------------------------------------------------------

    @property
    def entries_dir(self) -> str:
        return os.path.join(self.directory, f"v{CACHE_SCHEMA_VERSION}")

    def entry_path(self, analysis: str, key: str) -> str:
        return os.path.join(self.entries_dir, f"{analysis}-{key}.json")

    # -- memory tier ---------------------------------------------------

    def get_object(self, key: str) -> Any:
        """Tier-1 lookup: the decoded object, or :data:`MISS`."""
        if self.memory_entries <= 0 or key not in self._memory:
            return MISS
        self._memory.move_to_end(key)
        return self._memory[key]

    def put_object(self, key: str, obj: Any) -> None:
        if self.memory_entries <= 0:
            return
        self._memory[key] = obj
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
            get_metrics("cache").add("evictions")

    # -- disk tier -----------------------------------------------------

    def get_payload(self, analysis: str, key: str) -> Any:
        """Tier-2 lookup: the validated payload, or :data:`MISS`.

        Any defect — unreadable file, invalid JSON, wrong kind or
        schema, checksum mismatch — counts as a corrupt entry, unlinks
        the file and returns a miss.
        """
        path = self.entry_path(analysis, key)
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError:
            return MISS
        except OSError:
            return MISS
        try:
            entry = json.loads(text)
            if not isinstance(entry, dict):
                raise ValueError("entry is not an object")
            if entry.get("kind") != ENTRY_KIND:
                raise ValueError(f"wrong entry kind {entry.get('kind')!r}")
            if entry.get("schema") != CACHE_SCHEMA_VERSION:
                raise ValueError(f"wrong schema {entry.get('schema')!r}")
            payload = entry["payload"]
            if entry.get("checksum") != payload_checksum(payload):
                raise ValueError("payload checksum mismatch")
        except (ValueError, KeyError, TypeError):
            get_metrics("cache").add("corrupt_entries")
            self.invalidate(analysis, key)
            return MISS
        return payload

    def put_payload(self, analysis: str, key: str, fingerprint: str, payload: Any) -> bool:
        """Atomically write one entry; returns False on I/O failure."""
        entry = {
            "kind": ENTRY_KIND,
            "schema": CACHE_SCHEMA_VERSION,
            "analysis": analysis,
            "fingerprint": fingerprint,
            "created_unix": round(time.time(), 3),
            "checksum": payload_checksum(payload),
            "payload": payload,
        }
        path = self.entry_path(analysis, key)
        tmp = f"{path}.tmp.{os.getpid()}.{next(self._tmp_counter)}"
        try:
            os.makedirs(self.entries_dir, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True, separators=(",", ":"))
            os.replace(tmp, path)
        except OSError:
            get_metrics("cache").add("write_errors")
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        return True

    def invalidate(self, analysis: str, key: str) -> None:
        """Drop one entry from both tiers (corruption recovery path)."""
        self._memory.pop(key, None)
        try:
            os.unlink(self.entry_path(analysis, key))
        except OSError:
            pass

    # -- maintenance (the `repro cache` surface) -----------------------

    def clear(self) -> int:
        """Remove every entry (all schema versions); returns the count."""
        removed = 0
        self._memory.clear()
        try:
            children = os.listdir(self.directory)
        except OSError:
            return 0
        for child in children:
            if not _VERSION_DIR.match(child):
                continue
            version_dir = os.path.join(self.directory, child)
            try:
                removed += sum(
                    1 for name in os.listdir(version_dir) if name.endswith(".json")
                )
                shutil.rmtree(version_dir, ignore_errors=True)
            except OSError:
                continue
        return removed

    def stats(self) -> Dict[str, Any]:
        """Entry counts and sizes plus this process's session counters."""
        disk_entries = 0
        disk_bytes = 0
        by_analysis: Dict[str, int] = {}
        try:
            names = os.listdir(self.entries_dir)
        except OSError:
            names = []
        for name in names:
            if not name.endswith(".json"):
                continue
            disk_entries += 1
            # entry files are "<analysis>-<64-hex-key>.json"
            analysis = name[: -len(".json")].rsplit("-", 1)[0]
            by_analysis[analysis] = by_analysis.get(analysis, 0) + 1
            try:
                disk_bytes += os.path.getsize(os.path.join(self.entries_dir, name))
            except OSError:
                pass
        return {
            "directory": self.directory,
            "schema": CACHE_SCHEMA_VERSION,
            "disk_entries": disk_entries,
            "disk_bytes": disk_bytes,
            "by_analysis": by_analysis,
            "memory_entries": len(self._memory),
            "memory_limit": self.memory_entries,
            "session": dict(get_metrics("cache").counters),
        }

    def __repr__(self) -> str:
        return f"CacheStore({self.directory!r}, memory_entries={self.memory_entries})"


# ----------------------------------------------------------------------
# The process-wide active store
# ----------------------------------------------------------------------

_UNSET = object()
_ACTIVE: Any = _UNSET


def _store_from_env() -> Optional[CacheStore]:
    if os.environ.get("REPRO_NO_CACHE", "") not in ("", "0"):
        return None
    return CacheStore()


def active_store() -> Optional[CacheStore]:
    """The store :func:`repro.cache.cached_analysis` consults.

    Resolved lazily from the environment on first use:
    ``REPRO_NO_CACHE=1`` disables caching (returns ``None``),
    ``REPRO_CACHE_DIR`` relocates it.
    """
    global _ACTIVE
    if _ACTIVE is _UNSET:
        _ACTIVE = _store_from_env()
    return _ACTIVE


def set_store(store: Optional[CacheStore]) -> Optional[CacheStore]:
    """Install ``store`` (or ``None`` = disabled); returns the previous one."""
    global _ACTIVE
    previous = active_store()
    _ACTIVE = store
    return previous


def reset_store_from_env() -> None:
    """Forget the resolved store; the next use re-reads the environment."""
    global _ACTIVE
    _ACTIVE = _UNSET


@contextmanager
def use_store(store: Optional[CacheStore]) -> Iterator[Optional[CacheStore]]:
    """Scope ``store`` as the active one (``None`` disables caching)."""
    previous = set_store(store)
    try:
        yield store
    finally:
        set_store(previous)


@contextmanager
def cache_disabled() -> Iterator[None]:
    """Scope with caching off — the benchmark ledger's timing harness
    uses this so cold-path measurements never touch a developer's
    populated ``~/.cache/repro``."""
    with use_store(None):
        yield

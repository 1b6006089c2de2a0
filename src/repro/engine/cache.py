"""Content-addressed on-disk artifact store for evaluation results.

Layout (one JSON file per artifact, sharded on the first two key hex
digits to keep directories small)::

    <root>/
      ab/
        ab3f...e1.json      {"schema": 1, "key": "ab3f...e1",
                             "payload": {...}}

The root defaults to ``.repro-cache/`` in the current directory and can be
redirected with the ``REPRO_CACHE_DIR`` environment variable (or the
``cache_dir`` CLI flags).  Writes are atomic (temp file + ``os.replace``)
so a crashed or parallel writer can never leave a half-written entry a
reader would trust; a corrupted or schema-mismatched entry is deleted and
reported as a miss, never an error.

Eviction is size-capped LRU: whenever a put pushes the store above
``max_bytes`` (default 256 MB, override ``REPRO_CACHE_MAX_MB``), the
oldest entries by access time are deleted until the store fits.  Reads
refresh an entry's timestamp, so hot cells survive.

The store is safe under concurrent multi-process mutation (the
:mod:`repro.serve` worker fleet shares one on-disk root): every
``ENOENT`` raced against another process's eviction or clear — during a
read, a size scan, or the LRU sort — is treated as *already evicted* and
becomes a miss or a skipped accounting row, never an exception.
``tests/engine/test_cache_concurrent.py`` hammers one store from
multiple processes to hold this invariant.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .keys import SCHEMA_VERSION

#: Default eviction cap (bytes) unless ``REPRO_CACHE_MAX_MB`` is set.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro-cache`` in the CWD."""
    return Path(os.environ.get("REPRO_CACHE_DIR") or ".repro-cache")


@dataclass
class CacheCounters:
    """In-process hit/miss accounting of one :class:`ArtifactCache`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    corrupt: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (1.0 when no lookup happened yet)."""
        total = self.hits + self.misses
        return self.hits / total if total else 1.0


class ArtifactCache:
    """Content-addressed JSON artifact store with LRU size capping.

    Keys are sha256 hex digests (see :mod:`repro.engine.keys`); payloads
    are arbitrary JSON-serializable dicts.  All failure modes of the
    storage layer (corrupt file, permission race, concurrent delete)
    degrade to cache misses.
    """

    def __init__(self, root: Optional[str | Path] = None,
                 max_bytes: Optional[int] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        if max_bytes is None:
            env = os.environ.get("REPRO_CACHE_MAX_MB")
            max_bytes = (int(float(env) * 1024 * 1024) if env
                         else DEFAULT_MAX_BYTES)
        self.max_bytes = max_bytes
        self.counters = CacheCounters()

    # -- paths -------------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _entry_files(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return [p for p in self.root.glob("??/*.json") if p.is_file()]

    # -- core API ----------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """Payload stored under *key*, or None (counted as hit/miss).

        A file that cannot be read, fails to parse, or carries a stale
        schema is deleted and treated as a miss — the engine then simply
        recomputes the cell ("corrupted entry" is a recoverable state,
        never a crash).
        """
        path = self._path(key)
        try:
            entry = json.loads(path.read_text())
            if (not isinstance(entry, dict)
                    or entry.get("schema") != SCHEMA_VERSION
                    or entry.get("key") != key
                    or "payload" not in entry):
                raise ValueError("schema/key mismatch")
        except FileNotFoundError:
            self.counters.misses += 1
            return None
        except (OSError, ValueError):
            self._discard(path)
            self.counters.corrupt += 1
            self.counters.misses += 1
            return None
        try:
            os.utime(path)  # refresh LRU position
        except OSError:
            pass
        self.counters.hits += 1
        return entry["payload"]

    def put(self, key: str, payload: dict) -> None:
        """Atomically store *payload* under *key*, then enforce the cap."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = json.dumps({"schema": SCHEMA_VERSION, "key": key,
                           "payload": payload})
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(body)
            os.replace(tmp, path)
        except OSError:
            self._discard(Path(tmp))
            return
        self.counters.puts += 1
        self._evict(keep=path)

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for p in self._entry_files():
            self._discard(p)
            removed += 1
        return removed

    # -- maintenance -------------------------------------------------------

    def _discard(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def _evict(self, keep: Optional[Path] = None) -> None:
        """LRU-evict until total size fits ``max_bytes``.

        The entry just written (*keep*) is exempt, so a single oversized
        artifact cannot evict itself into a livelock.
        """
        files = self._entry_files()
        sizes: dict[Path, int] = {}
        ages: dict[Path, float] = {}
        for p in files:
            try:
                st = p.stat()
            except OSError:  # deleted by a concurrent process: already
                continue     # evicted, nothing left to account for
            sizes[p] = st.st_size
            ages[p] = st.st_mtime
        total = sum(sizes.values())
        if total <= self.max_bytes:
            return
        by_age = sorted(sizes, key=lambda p: ages[p])
        for p in by_age:
            if total <= self.max_bytes:
                break
            if keep is not None and p == keep:
                continue
            total -= sizes[p]
            self._discard(p)
            self.counters.evictions += 1

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        """Snapshot: on-disk state plus this process's counters."""
        files = self._entry_files()
        total = 0
        for p in files:
            try:
                total += p.stat().st_size
            except OSError:
                pass
        c = self.counters
        return {
            "root": str(self.root),
            "entries": len(files),
            "total_bytes": total,
            "max_bytes": self.max_bytes,
            "hits": c.hits,
            "misses": c.misses,
            "puts": c.puts,
            "evictions": c.evictions,
            "corrupt": c.corrupt,
            "hit_rate": c.hit_rate,
        }

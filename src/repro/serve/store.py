"""Namespaced artifact storage for the service tier.

:class:`LocalBackend` keeps per-tenant namespaces on one root, one
:class:`~repro.engine.cache.ArtifactCache` (atomic, LRU-capped,
schema-versioned) per namespace at
``<root>/ns/<namespace>/<shard>/<key>.json``.  The root's own top-level
entries read as the ``default`` namespace, so a plain ``.repro-cache/``
keeps working verbatim.

The worker fleet is the store's only writer, and it writes only the
successful results it computed itself.  No HTTP route writes an entry;
the one read is a submission's warm-hit probe, of keys the server has
recomputed from their specs.  Namespaces are tenant names sanitized by
:func:`check_namespace` (``[A-Za-z0-9._-]``, no traversal).
Cross-tenant *execution* dedup happens in the queue; the artifact
namespaces stay isolated so one tenant's eviction pressure or corrupted
entries never touch another's.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Optional, Union

from ..engine.cache import ArtifactCache, default_cache_dir

#: The implicit namespace of a store root's top-level entries (the
#: layout every pre-service cache already has).
DEFAULT_NAMESPACE = "default"

#: Subdirectory holding the non-default namespaces.
NAMESPACE_DIR = "ns"

_NAMESPACE_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


def check_namespace(namespace: str) -> str:
    """Validate a namespace token; returns it for chaining.

    Rejects path traversal and shell-hostile names outright — tenant
    names become directory names.
    """
    if not _NAMESPACE_RE.match(namespace) or namespace in (".", ".."):
        raise ValueError(f"invalid namespace {namespace!r} "
                         f"(want [A-Za-z0-9._-], 1-64 chars)")
    return namespace


class LocalBackend:
    """Per-namespace :class:`ArtifactCache` instances on one root."""

    def __init__(self, root: Union[None, str, Path] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self._caches: dict[str, ArtifactCache] = {}

    def namespace_root(self, namespace: str) -> Path:
        """On-disk directory of one namespace."""
        check_namespace(namespace)
        if namespace == DEFAULT_NAMESPACE:
            return self.root
        return self.root / NAMESPACE_DIR / namespace

    def cache(self, namespace: str) -> ArtifactCache:
        """The namespace's cache, created lazily."""
        cache = self._caches.get(namespace)
        if cache is None:
            cache = ArtifactCache(self.namespace_root(namespace))
            self._caches[namespace] = cache
        return cache

    def get(self, namespace: str, key: str) -> Optional[dict]:
        """Namespace-local lookup (counted per namespace)."""
        return self.cache(namespace).get(key)

    def put(self, namespace: str, key: str, payload: dict) -> None:
        """Namespace-local store (atomic, LRU-capped per namespace)."""
        self.cache(namespace).put(key, payload)

    def namespaces(self) -> list[str]:
        """Every namespace present on disk (default first)."""
        names = [DEFAULT_NAMESPACE]
        ns_dir = self.root / NAMESPACE_DIR
        if ns_dir.is_dir():
            names.extend(sorted(
                p.name for p in ns_dir.iterdir()
                if p.is_dir() and _NAMESPACE_RE.match(p.name)))
        return names

    def stats(self) -> dict:
        """Per-namespace breakdown plus the aggregate."""
        spaces = {}
        for name in self.namespaces():
            spaces[name] = self.cache(name).stats()
        return {
            "root": str(self.root),
            "namespaces": spaces,
            "entries": sum(s["entries"] for s in spaces.values()),
            "total_bytes": sum(s["total_bytes"] for s in spaces.values()),
        }

"""Parallel evaluation engine with a content-addressed artifact cache.

The compile→simulate pipeline behind every ``tables``/``verify``/benchmark
run, turned into a proper execution engine:

* :mod:`~repro.engine.keys` — canonical, process-stable cache keys
  (dataclass → canonical JSON → sha256, salted with a schema version);
* :mod:`~repro.engine.cache` — content-addressed on-disk artifact store
  (``.repro-cache/`` or ``$REPRO_CACHE_DIR``) with atomic writes,
  corrupted-entry recovery, and size-capped LRU eviction;
* :mod:`~repro.engine.cells` — the picklable unit of work (one
  benchmark × scheme cell) and :func:`~repro.engine.cells.execute_cell`,
  the only code that runs one, with crash containment and retry, each
  cell bounded by its step budget;
* :mod:`~repro.engine.pool` — :func:`~repro.engine.pool.run_cached`,
  the one cached loop every batch of cells runs through, and
  :class:`~repro.engine.pool.LocalExecutor` (in-process at ``jobs=1``,
  a process pool with worker-death recovery above);
* :mod:`~repro.engine.suite` — the cached suite runner behind
  ``Session.run_suite``/``run_benchmark``;
* :mod:`~repro.engine.sweep` — declarative cartesian design-space sweeps
  through the suite runner.

A warm cache makes ``python -m repro tables`` perform **zero** compiles
and simulations (assert via :data:`~repro.engine.cells.COUNTERS`); a cold
``--jobs N`` run fans cells out over worker processes.  See
docs/ENGINE.md for the cache layout and invalidation rules.
"""

from .cache import ArtifactCache, CacheCounters, default_cache_dir
from .cells import (
    CELL_RETRIES, CELLS, COUNTERS, CellSpec, EngineCounters, execute_cell,
    spec_key,
)
from .keys import (
    SCHEMA_VERSION, canonical, canonical_json, cell_key, digest,
    program_digest, program_fingerprint,
)
from .pool import (
    CellKind, LocalExecutor, PoolDecision, execution_mode, run_cached,
)
from .suite import coerce_cache, run_suite
from .sweep import SweepSpec, grid_from_dict, run_sweep

__all__ = [
    "ArtifactCache", "CacheCounters", "default_cache_dir",
    "CELL_RETRIES", "CELLS", "COUNTERS", "CellSpec", "EngineCounters",
    "execute_cell", "spec_key",
    "SCHEMA_VERSION", "canonical", "canonical_json", "cell_key", "digest",
    "program_digest", "program_fingerprint",
    "CellKind", "LocalExecutor", "PoolDecision", "execution_mode",
    "run_cached", "coerce_cache", "run_suite",
    "SweepSpec", "grid_from_dict", "run_sweep",
]

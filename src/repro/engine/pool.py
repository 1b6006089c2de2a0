"""The one cached loop every batch of cells runs through, and executors.

:func:`run_cached` runs a suite's grid, a fuzz campaign and a tune round
alike: it probes the artifact cache once per distinct key, hands only
the misses to an *executor* in one batch, and stores only fresh results
that pass their kind's success test.  An executor's
``run(kind, cells, programs)`` returns results in input order:

* :class:`LocalExecutor` runs in the calling process at ``jobs=1``
  through the kind's batch function (one
  :class:`~repro.engine.cells.BenchmarkMemo` per benchmark on the
  caller's built programs for evaluation cells, no serialization), and
  above that over a :class:`~concurrent.futures.ProcessPoolExecutor`
  whose workers send each result back as its payload.  A Python
  exception is contained by the kind's own code; a spec whose worker
  *process* died (OOM kill, interpreter abort) is re-run in the parent,
  so a dead worker degrades throughput, never results;
* :class:`repro.serve.client.ServeClient` sends the batch to a running
  ``repro serve`` instance as one job.

A :class:`CellKind` — :data:`repro.engine.cells.CELLS` or
:data:`repro.qa.cells.FUZZ` — declares once how its specs run, how a
result becomes a JSON payload and back, and which payloads are
successes; the serve worker reads the same declarations.

Oversubscription guard: more workers than CPUs is a slowdown (process
startup and imports per worker, time-sliced), so :func:`execution_mode`
clamps the worker count to ``min(jobs, n_items, cpu_count)`` and runs
in-process when that leaves one worker.  ``REPRO_POOL_FORCE=1`` bypasses
the CPU clamp (e.g. for pool testing on small boxes).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, Optional


def _identity(payload):
    """A result that already is its JSON payload."""
    return payload


@dataclass(frozen=True)
class CellKind:
    """One kind of cell: how its specs run and which results are kept.

    ``run(specs, programs)`` executes a batch in the calling process and
    returns one result per spec; *programs* optionally maps benchmark
    name to an already-built program.  ``encode``/``decode`` convert a
    result to its JSON payload and back, and ``ok(payload)`` is the
    success test: only payloads that pass it are ever cached.
    ``key(spec)`` is a spec's cache key, which the serve front end
    recomputes for every submitted cell.  Every field is a module-level
    function, so a kind pickles into pool workers by reference.
    """

    name: str                  # the serve protocol's job kind
    run: Callable
    ok: Callable[[dict], bool]
    key: Callable[..., str]
    encode: Callable = _identity
    decode: Callable = _identity

    def execute(self, spec) -> dict:
        """Run one spec by itself; returns its payload (pool and serve
        workers)."""
        return self.encode(self.run([spec], None)[0])


@dataclass(frozen=True)
class PoolDecision:
    """How one fan-out request was actually executed and why."""

    mode: str      # "serial" | "serial-oversubscribed" | "parallel"
    workers: int   # processes actually used (1 for serial modes)
    jobs: int      # what the caller asked for
    n_items: int   # size of the work list
    cpus: int      # os.cpu_count() at decision time


def execution_mode(jobs: int, n_items: int) -> PoolDecision:
    """Decide serial vs. parallel for a *jobs* request over *n_items*.

    Workers are clamped to ``min(jobs, n_items, cpu_count)``; a clamp
    down to one worker falls back to serial — reported as mode
    ``"serial-oversubscribed"`` when the caller asked for parallelism
    (``jobs > 1``) but the machine cannot provide it, so the condition is
    visible rather than silently absorbed.  ``REPRO_POOL_FORCE=1``
    disables the CPU clamp (item count still bounds the pool).
    """
    cpus = os.cpu_count() or 1
    workers = min(jobs, n_items)
    if not os.environ.get("REPRO_POOL_FORCE"):
        workers = min(workers, cpus)
    if workers <= 1:
        mode = ("serial-oversubscribed"
                if jobs > 1 and n_items > 1 else "serial")
        return PoolDecision(mode, 1, jobs, n_items, cpus)
    return PoolDecision("parallel", workers, jobs, n_items, cpus)


class LocalExecutor:
    """Runs batches in this process, or over *jobs* worker processes.

    Worker count follows :func:`execution_mode`: oversubscribed requests
    (more jobs than CPUs can absorb) run in-process.
    """

    def __init__(self, jobs: int = 1):
        self.jobs = jobs

    def run(self, kind: CellKind, cells: list,
            programs: Optional[dict] = None) -> list:
        """Results of the ``[(key, spec)]`` *cells*, in input order."""
        specs = [spec for _, spec in cells]
        decision = execution_mode(self.jobs, len(specs))
        if decision.workers <= 1:
            return kind.run(specs, programs)
        results: list = [None] * len(specs)
        with suppress(Exception):  # pool setup/teardown failure
            with ProcessPoolExecutor(max_workers=decision.workers) as ex:
                futures = [ex.submit(kind.execute, spec) for spec in specs]
                for i, fut in enumerate(futures):
                    with suppress(Exception):  # its worker process died
                        results[i] = kind.decode(fut.result())
        redo = [i for i, result in enumerate(results) if result is None]
        for i, result in zip(redo, kind.run([specs[i] for i in redo],
                                            programs)):
            results[i] = result
        return results

    def __repr__(self) -> str:
        return f"LocalExecutor(jobs={self.jobs})"


def run_cached(kind: CellKind, cells: list, executor=None, store=None,
               programs: Optional[dict] = None,
               progress: Optional[Callable[[str], None]] = None
               ) -> tuple[list, int, int]:
    """Results of the ``[(key, spec)]`` *cells*, in order, via the cache.

    Each distinct key is probed once in *store* (an
    :class:`~repro.engine.cache.ArtifactCache`, or None); the misses go
    to *executor* (a :class:`LocalExecutor` when None) in one batch, and
    not at all when there are none.  A fresh result is stored only when
    its payload passes ``kind.ok``.  Cells sharing a key share one
    result.  Returns ``(results, hits, executed)``, both counts over
    distinct keys.
    """
    found: dict = {}
    misses: dict = {}
    for key, spec in cells:
        if key in found or key in misses:
            continue
        payload = store.get(key) if store is not None else None
        if payload is not None:
            found[key] = kind.decode(payload)
        else:
            misses[key] = spec
    hits = len(found)
    if progress:
        progress(f"{len(cells)} cells: {hits} cached, "
                 f"{len(misses)} to run")
    if misses:
        executor = executor if executor is not None else LocalExecutor()
        fresh = executor.run(kind, list(misses.items()), programs)
        for key, result in zip(misses, fresh):
            found[key] = result
            if store is not None:
                payload = kind.encode(result)
                if kind.ok(payload):
                    store.put(key, payload)
    return [found[key] for key, _ in cells], hits, len(misses)

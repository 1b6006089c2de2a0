"""The worker fleet: threads that pull cells and push results.

Each worker loops claim → execute → store → complete against one
:class:`~repro.serve.queue.JobQueue` and one
:class:`~repro.serve.store.LocalBackend`.  Execution is the job kind's
own :class:`~repro.engine.pool.CellKind` code, exactly as a local pool
worker runs it — :func:`~repro.engine.cells.execute_cell` for
evaluation cells (retry, bounded by the step budget) and
:func:`~repro.qa.cells.execute_fuzz_cell` for fuzz cells.  Both contain
failures instead of raising, so a cell can only take a worker down
through interpreter-level faults — and even then the dispatch loop
catches the escape, requeues the cell for a live worker (bounded by
:data:`~repro.serve.queue.MAX_CELL_ATTEMPTS`), and keeps serving.

Every result is delivered to the job.  A result that passes its kind's
success test (``CellKind.ok``) is also written through to **every
subscribing tenant's cache namespace** before completion: execution is
deduplicated fleet-wide, but each tenant's artifact store stays
isolated — the next identical submission from any of them replays from
cache without queueing at all.  Failures are never stored: a failure
can be transient (a dead worker, a ``MemoryError``), and a stored one
would answer every later submission of the same cell.

Utilization accounting: each worker tracks busy nanoseconds against its
lifetime; :meth:`WorkerFleet.stats` reports per-worker and fleet-level
utilization for the ``/v1/stats`` endpoint.
"""

from __future__ import annotations

import importlib
import threading
import time
import traceback

from ..core import serde
from ..obs.trace import span as obs_span
from .queue import JobQueue
from .store import LocalBackend
from . import protocol

#: Seconds a worker blocks in claim() before re-checking its stop flag.
CLAIM_POLL_S = 0.2


def _failure_payload(kind: str, exc: BaseException) -> dict:
    """A contained failure result for a cell whose execution escaped."""
    detail = "".join(traceback.format_exception(
        type(exc), exc, exc.__traceback__)[-4:])
    reason = f"{type(exc).__name__}: {exc}"[:80]
    if kind == "fuzz":
        return {"schemes": {}, "divergent": [], "error": reason,
                "error_detail": detail}
    return serde.stamp({"benchmark": "?", "scheme": "?", "stats": None,
                        "exec_stats": None, "compile_result": None,
                        "failure": reason, "failure_detail": detail})


def execute_payload(kind: str, spec: dict) -> dict:
    """Execute one claimed cell of *kind*; returns its result payload.

    Decodes the wire spec and runs it through the kind's
    :meth:`~repro.engine.pool.CellKind.execute`, which contains
    Python-level failures itself; decoding errors raise (the dispatch
    loop turns them into failure payloads after the attempt budget).
    """
    return protocol.cell_kind(kind).execute(
        protocol.spec_from_payload(kind, spec))


class Worker:
    """One fleet thread (see module docstring)."""

    def __init__(self, name: str, queue: JobQueue, store: LocalBackend,
                 subscribers_of) -> None:
        self.name = name
        self.queue = queue
        self.store = store
        self._subscribers_of = subscribers_of
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name=name,
                                        daemon=True)
        self.cells_executed = 0
        #: cells whose execution raised out of the cell's own containment
        self.escaped = 0
        #: successful results the store failed to write
        self.store_failures = 0
        self.busy_ns = 0
        self.started_ns = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Launch the worker thread."""
        self.started_ns = time.monotonic_ns()
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Signal the loop to exit and join it."""
        self._stop.set()
        self._thread.join(timeout=timeout)

    @property
    def alive(self) -> bool:
        """Whether the worker thread is still running."""
        return self._thread.is_alive()

    # -- the loop ----------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            claimed = self.queue.claim(timeout=CLAIM_POLL_S)
            if claimed is None:
                continue
            key, kind, spec = claimed
            t0 = time.monotonic_ns()
            try:
                with obs_span("serve.execute", worker=self.name,
                              kind=kind, key=key[:12]):
                    payload = execute_payload(kind, spec)
            except BaseException as exc:  # noqa: BLE001 - fleet survival
                self.escaped += 1
                if not self.queue.requeue(key):
                    # attempt budget exhausted: fail the cell for all
                    # subscribers rather than spinning forever
                    self._publish(key, kind, _failure_payload(kind, exc))
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                continue
            finally:
                self.busy_ns += time.monotonic_ns() - t0
            self.cells_executed += 1
            self._publish(key, kind, payload)

    def _publish(self, key: str, kind: str, payload: dict) -> None:
        """Store a success in every subscriber namespace; complete."""
        tenants = self._subscribers_of(key)
        if protocol.cell_kind(kind).ok(payload):
            for tenant in tenants:
                try:
                    self.store.put(tenant, key, payload)
                except Exception:  # noqa: BLE001 - cache write must not kill
                    self.store_failures += 1
        self.queue.complete(key, payload)

    # -- reporting ---------------------------------------------------------

    def utilization(self) -> float:
        """Busy fraction of this worker's lifetime (0.0 when unstarted)."""
        if not self.started_ns:
            return 0.0
        alive_ns = time.monotonic_ns() - self.started_ns
        return self.busy_ns / alive_ns if alive_ns else 0.0


class WorkerFleet:
    """A fixed-size set of :class:`Worker` threads over one queue."""

    def __init__(self, queue: JobQueue, store: LocalBackend, workers: int = 2):
        if workers < 1:
            raise ValueError("the fleet needs at least one worker")
        self.queue = queue
        self.store = store
        self._subscriber_index: dict[str, list[str]] = {}
        self._index_lock = threading.Lock()
        self.workers = [
            Worker(f"worker-{i}", queue, store, self.subscribers_of)
            for i in range(workers)]

    # -- subscriber index --------------------------------------------------
    # The queue tracks jobs; the fleet only needs key -> tenant namespaces
    # for the write-through.  The server registers subscriptions at
    # submission time and the fleet drops them at completion.

    def subscribe(self, key: str, tenant: str) -> None:
        """Record that *tenant* wants the artifact of *key*."""
        with self._index_lock:
            tenants = self._subscriber_index.setdefault(key, [])
            if tenant not in tenants:
                tenants.append(tenant)

    def subscribers_of(self, key: str) -> list[str]:
        """Tenant namespaces awaiting *key* (cleared on completion)."""
        with self._index_lock:
            return list(self._subscriber_index.pop(key, []))

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Launch every worker, after importing the simulator here: two
        workers' first lazy imports of ``repro.fastsim`` submodules take
        the package's import locks in opposite orders, and the
        ``_DeadlockError`` that breaks the cycle fails a cell."""
        importlib.import_module("repro.fastsim")
        for w in self.workers:
            w.start()

    def stop(self) -> None:
        """Stop every worker (the queue is closed first by the server)."""
        for w in self.workers:
            w.stop()

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        """Fleet snapshot: per-worker and aggregate utilization, cells
        executed, escaped executions and failed store writes."""
        per_worker = {
            w.name: {
                "alive": w.alive,
                "cells_executed": w.cells_executed,
                "escaped": w.escaped,
                "store_failures": w.store_failures,
                "utilization": round(w.utilization(), 4),
            } for w in self.workers}
        return {
            "workers": len(self.workers),
            "alive": sum(1 for w in self.workers if w.alive),
            "cells_executed": sum(w.cells_executed for w in self.workers),
            "escaped": sum(w.escaped for w in self.workers),
            "store_failures": sum(w.store_failures for w in self.workers),
            "utilization": round(
                sum(w.utilization() for w in self.workers)
                / len(self.workers), 4),
            "per_worker": per_worker,
        }

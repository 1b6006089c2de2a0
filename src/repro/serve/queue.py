"""Multi-tenant job queue with fleet-wide in-flight dedup.

A *job* is one tenant's batch of content-addressed cells; a *cell* is
the unit of execution (an evaluation or fuzz cell, already keyed by
:mod:`repro.engine.keys` / :func:`repro.qa.cells.fuzz_cell_key`).  The
queue's one load-bearing invariant: **each unique cell key executes at
most once fleet-wide**, no matter how many tenants' jobs reference it
concurrently — overlapping sweeps from different tenants share the same
in-flight execution, and every subscribed job receives the result.

Mechanics: cells live in ``_cells`` keyed by cell key, each holding the
executable spec and the list of ``(job, index)`` subscribers.  A key
submitted while already pending/running gains a subscriber instead of a
second queue entry (counted as ``serve.queue.deduped``).  Workers
:meth:`claim` keys FIFO, :meth:`complete` them with a result payload, or
:meth:`requeue` them when a worker dies mid-cell — a requeued cell keeps
its subscribers and runs on the next live worker, so worker death
degrades latency, never results (the same contract as
:class:`repro.engine.pool.LocalExecutor`).

Thread-safety: one lock + condition guards all state; every public
method is safe from any thread (HTTP handler threads submit while
worker threads claim/complete).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

#: Executions per cell before the queue gives up and records a failure
#: result for its subscribers (covers repeated worker death on one cell;
#: Python-level failures are already contained inside the cell).
MAX_CELL_ATTEMPTS = 3


@dataclass
class Job:
    """One tenant's submitted batch (bookkeeping view)."""

    job_id: str
    tenant: str
    kind: str
    keys: list[str]                      # cell keys in submission order
    submitted_ns: int
    results: dict[str, dict] = field(default_factory=dict)
    n_deduped: int = 0                   # cells shared with in-flight work
    n_cache_hits: int = 0                # cells answered straight from cache

    @property
    def n_done(self) -> int:
        """Number of cells with a recorded result."""
        return len(set(self.keys) & set(self.results))

    @property
    def done(self) -> bool:
        """True when every cell has a result."""
        return all(k in self.results for k in self.keys)

    @property
    def state(self) -> str:
        """``queued`` | ``running`` | ``done``."""
        if self.done:
            return "done"
        return "running" if self.results else "queued"


@dataclass
class _CellEntry:
    """Queue-internal state of one unique in-flight cell."""

    key: str
    kind: str
    spec: dict
    subscribers: list[Job] = field(default_factory=list)
    claimed: bool = False
    attempts: int = 0


class JobQueue:
    """The service's dedup-aware work queue (see module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._cells: dict[str, _CellEntry] = {}
        self._pending: deque[str] = deque()
        self._jobs: dict[str, Job] = {}
        self._job_ids = itertools.count(1)
        self._closed = False

    # -- submission --------------------------------------------------------

    def submit(self, tenant: str, kind: str,
               cells: list[tuple[str, dict]],
               precomputed: Optional[dict[str, dict]] = None) -> Job:
        """Enqueue one job; returns its :class:`Job` record.

        *cells* is ``[(key, spec_payload), ...]`` in result order.
        *precomputed* maps keys the caller already resolved (tenant cache
        hits) to their payloads — those cells never enter the queue.
        A key that is already pending or running gains this job as a
        subscriber instead of a second execution (the dedup invariant).
        """
        precomputed = precomputed or {}
        with self._lock:
            if self._closed:
                raise RuntimeError("queue is shut down")
            job = Job(job_id=f"job-{next(self._job_ids)}", tenant=tenant,
                      kind=kind, keys=[k for k, _ in cells],
                      submitted_ns=time.monotonic_ns())
            for key, spec in cells:
                if key in precomputed:
                    job.results[key] = precomputed[key]
                    job.n_cache_hits += 1
                    continue
                entry = self._cells.get(key)
                if entry is not None:
                    entry.subscribers.append(job)
                    job.n_deduped += 1
                    continue
                entry = _CellEntry(key=key, kind=kind, spec=spec,
                                   subscribers=[job])
                self._cells[key] = entry
                self._pending.append(key)
            self._jobs[job.job_id] = job
            self._work.notify_all()
            return job

    # -- worker surface ----------------------------------------------------

    def claim(self, timeout: Optional[float] = None
              ) -> Optional[tuple[str, str, dict]]:
        """Block for the next cell; returns ``(key, kind, spec)``.

        Returns None on *timeout* (seconds) or queue shutdown — the
        worker loop uses that to re-check its own stop flag.
        """
        with self._lock:
            while not self._pending:
                if self._closed or not self._work.wait(timeout=timeout):
                    return None
            key = self._pending.popleft()
            entry = self._cells[key]
            entry.claimed = True
            entry.attempts += 1
            return key, entry.kind, entry.spec

    def complete(self, key: str, payload: dict) -> None:
        """Record *payload* for every job subscribed to *key*."""
        with self._lock:
            entry = self._cells.pop(key, None)
            if entry is None:
                return  # stale completion after a shutdown/requeue race
            for job in entry.subscribers:
                job.results[key] = payload
            self._work.notify_all()

    def requeue(self, key: str) -> bool:
        """Put a claimed cell back at the queue head (worker death).

        Returns False — and drops the cell, leaving its subscribers a
        failure payload to be completed by the caller — when the cell
        has exhausted :data:`MAX_CELL_ATTEMPTS`.
        """
        with self._lock:
            entry = self._cells.get(key)
            if entry is None:
                return False
            if entry.attempts >= MAX_CELL_ATTEMPTS:
                return False
            entry.claimed = False
            self._pending.appendleft(key)
            self._work.notify_all()
            return True

    # -- queries -----------------------------------------------------------

    def job(self, job_id: str) -> Optional[Job]:
        """The job record, or None."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self, tenant: Optional[str] = None) -> list[Job]:
        """All jobs (optionally one tenant's), oldest first."""
        with self._lock:
            out = [j for j in self._jobs.values()
                   if tenant is None or j.tenant == tenant]
        return sorted(out, key=lambda j: j.submitted_ns)

    def wait_job(self, job_id: str, timeout: Optional[float] = None) -> bool:
        """Block until *job_id* is done; returns its done state."""
        deadline = (time.monotonic() + timeout) if timeout is not None \
            else None
        with self._lock:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    return False
                if job.done:
                    return True
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._work.wait(timeout=remaining)

    def depth(self) -> int:
        """Number of cells waiting (excludes claimed in-flight cells)."""
        with self._lock:
            return len(self._pending)

    def stats(self) -> dict:
        """Queue snapshot for the stats endpoint."""
        with self._lock:
            in_flight = sum(1 for e in self._cells.values() if e.claimed)
            return {
                "depth": len(self._pending),
                "in_flight": in_flight,
                "unique_cells": len(self._cells),
                "jobs": len(self._jobs),
                "jobs_done": sum(1 for j in self._jobs.values() if j.done),
            }

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop accepting work and wake every blocked waiter."""
        with self._lock:
            self._closed = True
            self._work.notify_all()

"""Process-pool fan-out for independent evaluation cells.

:func:`run_cells` executes a list of :class:`~repro.engine.cells.CellSpec`
and returns one :class:`~repro.eval.runner.SchemeResult` per spec, in
input order.  With ``jobs <= 1`` it runs everything in the calling
process, sharing profiles, compiles and simulations across each
benchmark's cells (one :class:`~repro.engine.cells.BenchmarkMemo` per
benchmark) with no serialization at all; with ``jobs > 1`` it fans out
over a :class:`~concurrent.futures.ProcessPoolExecutor` whose workers
send each result back as its ``to_dict`` payload.

Crash containment extends into the worker path: a Python exception inside
a worker is contained by :func:`~repro.engine.cells.execute_cell` itself
(retry once, then a ``FAIL(...)`` result).  If a worker *process* dies
(OOM kill, interpreter abort), every in-flight and unstarted cell's
future raises — those cells are transparently re-run in the parent
process with the same containment, so one dead worker degrades throughput,
never results.

Oversubscription guard
----------------------
Spawning more workers than the machine has CPUs is a *slowdown*, not a
speedup: process startup plus import cost is paid per worker while the
workers time-slice one another (observed as ``speedup_parallel_over_cold
< 1.0`` in BENCH_engine.json on a 1-CPU box).  :func:`execution_mode`
therefore clamps the worker count to ``min(jobs, n_items, cpu_count)``
and falls back to serial execution when the clamp leaves a single worker.
The decision (mode, workers, and why) is recorded in
:data:`LAST_DECISION` so benchmarks and the CLI can report which path
actually ran.  Set ``REPRO_POOL_FORCE=1`` to bypass the CPU clamp (e.g.
for I/O-bound custom tasks or pool testing on small boxes).
"""

from __future__ import annotations

import os
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..isa.program import Program
from ..obs.metrics import REGISTRY
from .cells import BenchmarkMemo, CellSpec, execute_cell


@dataclass(frozen=True)
class PoolDecision:
    """How one fan-out request was actually executed and why."""

    mode: str      # "serial" | "serial-oversubscribed" | "parallel"
    workers: int   # processes actually used (1 for serial modes)
    jobs: int      # what the caller asked for
    n_items: int   # size of the work list
    cpus: int      # os.cpu_count() at decision time

    def to_dict(self) -> dict:
        """JSON-serializable form (bench reports record this)."""
        return {"mode": self.mode, "workers": self.workers,
                "jobs": self.jobs, "n_items": self.n_items,
                "cpus": self.cpus}


#: The most recent :class:`PoolDecision` made in this process, or None.
#: Benchmarks read this right after a run to record which mode executed.
LAST_DECISION: Optional[PoolDecision] = None


def execution_mode(jobs: int, n_items: int) -> PoolDecision:
    """Decide serial vs. parallel for a *jobs* request over *n_items*.

    Workers are clamped to ``min(jobs, n_items, cpu_count)``; a clamp
    down to one worker falls back to serial — reported as mode
    ``"serial-oversubscribed"`` when the caller asked for parallelism
    (``jobs > 1``) but the machine cannot provide it, so the condition is
    visible rather than silently absorbed.  ``REPRO_POOL_FORCE=1``
    disables the CPU clamp (item count still bounds the pool).  The
    decision is stored in :data:`LAST_DECISION` as a side effect.
    """
    global LAST_DECISION
    cpus = os.cpu_count() or 1
    workers = min(jobs, n_items)
    if not os.environ.get("REPRO_POOL_FORCE"):
        workers = min(workers, cpus)
    if workers <= 1:
        mode = ("serial-oversubscribed"
                if jobs > 1 and n_items > 1 else "serial")
        decision = PoolDecision(mode, 1, jobs, n_items, cpus)
    else:
        decision = PoolDecision("parallel", workers, jobs, n_items, cpus)
    LAST_DECISION = decision
    REGISTRY.inc(f"engine.pool.{decision.mode}")
    return decision


def _execute_payload(spec: CellSpec) -> dict:
    """Pool-worker entry: run one cell and serialize its result."""
    return execute_cell(spec).to_dict()


def _run_serial(specs: list[CellSpec],
                programs: Optional[dict[str, Program]] = None) -> list:
    """In-process execution: one :class:`BenchmarkMemo` per benchmark.

    The memo keys every compile by input program, kind, heuristics, step
    budget and backend, so :mod:`repro.tune`'s batches of *different*
    candidate vectors of one benchmark never share a compile — only the
    profiles and simulations their inputs determine.  A benchmark missing
    from *programs* is built once per payload by the memo.
    """
    memos: dict[str, BenchmarkMemo] = defaultdict(BenchmarkMemo)
    out = []
    for spec in specs:
        prog = (programs or {}).get(spec.benchmark)
        out.append(execute_cell(spec, program=prog,
                                memo=memos[spec.benchmark]))
    return out


def run_cells(specs: list[CellSpec], jobs: int = 1,
              programs: Optional[dict[str, Program]] = None) -> list:
    """Execute all *specs*; returns one ``SchemeResult`` per spec, in order.

    *programs* optionally maps benchmark name to an already-built
    :class:`Program`, short-circuiting deserialization on the in-process
    path (worker processes always rebuild from the spec payload).

    Worker count follows :func:`execution_mode`: oversubscribed requests
    (more jobs than CPUs can absorb) fall back to serial execution.
    """
    decision = execution_mode(jobs, len(specs))
    if decision.workers <= 1:
        return _run_serial(specs, programs)

    from ..eval.runner import SchemeResult

    results: list = [None] * len(specs)
    redo: list[int] = []
    try:
        with ProcessPoolExecutor(max_workers=decision.workers) as ex:
            futures = [ex.submit(_execute_payload, spec) for spec in specs]
            for i, fut in enumerate(futures):
                try:
                    results[i] = SchemeResult.from_dict(fut.result())
                except Exception:  # noqa: BLE001 - worker died; re-run here
                    redo.append(i)
    except Exception:  # noqa: BLE001 - executor setup/teardown failure
        redo.extend(i for i in range(len(specs))
                    if results[i] is None and i not in redo)
    if redo:
        redone = _run_serial([specs[i] for i in redo], programs)
        for i, cell in zip(redo, redone):
            results[i] = cell
    return [r if r is not None else _run_serial([specs[i]], programs)[0]
            for i, r in enumerate(results)]


def run_tasks(fn: Callable, payloads: Sequence, jobs: int = 1) -> list:
    """Generic fan-out: ``[fn(p) for p in payloads]``, optionally parallel.

    The engine-grade sibling of :func:`run_cells` for work units that are
    not (benchmark, scheme) cells — e.g. :mod:`repro.qa` fuzz cells.  *fn*
    must be a module-level picklable callable and each payload picklable;
    containment of Python-level exceptions is *fn*'s own responsibility
    (fuzz cells return failure payloads, as
    :func:`~repro.engine.cells.execute_cell` returns failed results).
    Worker-process death is handled here exactly like :func:`run_cells`:
    the affected payloads are transparently re-executed in the calling
    process, so a dead worker degrades throughput, never results.  Worker
    count follows :func:`execution_mode` (oversubscribed requests run
    serially).
    """
    decision = execution_mode(jobs, len(payloads))
    if decision.workers <= 1:
        return [fn(p) for p in payloads]

    results: list = [None] * len(payloads)
    filled = [False] * len(payloads)
    try:
        with ProcessPoolExecutor(max_workers=decision.workers) as ex:
            futures = [ex.submit(fn, p) for p in payloads]
            for i, fut in enumerate(futures):
                try:
                    results[i] = fut.result()
                    filled[i] = True
                except Exception:  # noqa: BLE001 - worker died; re-run here
                    pass
    except Exception:  # noqa: BLE001 - executor setup/teardown failure
        pass
    for i, done in enumerate(filled):
        if not done:
            results[i] = fn(payloads[i])
    return results

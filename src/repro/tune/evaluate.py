"""Candidate evaluation: one heuristic vector = ordinary engine cells.

A candidate is scored by compiling and simulating the **Proposed** scheme
over the workload zoo with its heuristic vector (and machine overrides)
applied — exactly the cell the suite runner would build for the same
inputs, keyed by the same content-addressed
:func:`~repro.engine.keys.cell_key`.  That identity is the whole point:
tune shares the artifact cache with ``tables``/``sweep`` runs, repeated
or resumed searches re-execute nothing, and a fleet can absorb the
search through the ordinary serve protocol
(:func:`repro.serve.client.remote_cell_executor`) with fleet-wide
dedup.

Objectives extracted per (candidate, workload) cell:

* ``ipc`` — timing-simulator instructions per cycle (maximize);
* ``code_growth`` — transformed / original static instruction count
  (minimize; the cost axis of the paper's Figure 7 discussion);
* ``compile_cost`` — deterministic transform-count proxy for compile
  time (minimize; see :func:`compile_cost` for why not wall-clock).
"""

from __future__ import annotations

from typing import Optional

from ..engine.cells import COUNTERS, CellSpec, cell_grid
from ..engine.pool import run_cells
from ..eval.runner import SchemeResult
from ..obs.metrics import REGISTRY

#: The scheme every candidate is scored on: the paper's combined
#: speculative+guarded pipeline — the one whose decisions the heuristic
#: vector actually steers.  (scheme, kind, predictor) as in SCHEME_PLAN.
TUNE_SCHEME = ("Proposed", "prop", "twobit")


def compile_cost(cr) -> int:
    """Deterministic compile-time proxy: total transforms applied.

    Wall-clock compile time would break the tuner's reproducibility
    contract (same seed + budget → identical Pareto front), so the cost
    objective counts the work the pipeline performed instead: splits,
    if-conversions, branch-likelies, speculated and duplicated
    operations, and planted fences.  Monotone in real compile time for a
    fixed input, and bit-stable across hosts and runs.
    """
    cost = cr.splits_applied + cr.ifconverts_applied
    if cr.likely_report is not None:
        cost += cr.likely_report.converted
    if cr.region_report is not None:
        cost += (cr.region_report.speculated + cr.region_report.duplicated
                 + cr.region_report.fenced)
    return cost


def candidate_cells(heur, config_overrides: dict, programs: dict,
                    max_steps: int, timeout: Optional[float],
                    backend: str) -> list[tuple[str, str, CellSpec]]:
    """The (benchmark, key, spec) grid of one candidate vector.

    One Proposed-scheme cell per workload, keyed exactly like the suite
    runner's Proposed cell for the same inputs (both come from
    :func:`~repro.engine.cells.cell_grid`) — a candidate whose vector
    equals the session default therefore costs nothing after any
    ``tables`` run at the same scale.
    """
    return [(name, key, spec) for name, _, spec, key in cell_grid(
        programs, heur, config_overrides, max_steps, backend,
        schemes=(TUNE_SCHEME,), timeout=timeout)]


def measure(payload: dict, original_len: int) -> dict:
    """Objective vector of one cell payload (``ok=False`` on failure)."""
    cell = SchemeResult.from_dict(payload)
    if not cell.ok or cell.compile_result is None:
        return {"ok": False, "ipc": 0.0, "code_growth": float("inf"),
                "compile_cost": 0, "failure": cell.failure}
    size = len(cell.compile_result.program)
    return {"ok": True,
            "ipc": cell.stats.ipc,
            "code_growth": (size / original_len if original_len else 1.0),
            "compile_cost": compile_cost(cell.compile_result),
            "failure": None}


def evaluate_batch(cells: list[tuple[str, str, CellSpec]], programs: dict,
                   cache, jobs: int,
                   executor=None) -> tuple[dict, int, int]:
    """Execute one round's cell grid through cache, pool, or fleet.

    *cells* is the concatenated ``candidate_cells`` output of every
    candidate in the round (duplicate keys collapse — two candidates
    whose vectors compile identically share one execution).  Returns
    ``({key: payload}, hits, executed)``; ``hits`` counts artifact-cache
    hits, ``executed`` the unique cells actually run.  *executor* (from
    :func:`repro.serve.client.remote_cell_executor`) replaces the local
    pool with one batched fleet submission.
    """
    payloads: dict[str, dict] = {}
    miss: dict[str, CellSpec] = {}
    for _, key, spec in cells:
        if key in payloads or key in miss:
            continue
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            payloads[key] = cached
            continue
        miss[key] = spec
    hits = len(payloads)
    REGISTRY.inc("tune.cells.hit", hits)
    REGISTRY.inc("tune.cells.miss", len(miss))
    if miss:
        items = list(miss.items())
        if executor is not None:
            fresh = executor([(k, s) for k, s in items])
        else:
            results = run_cells([s for _, s in items], jobs=jobs,
                                programs=programs)
            fresh = {k: cell.to_dict()
                     for (k, _), cell in zip(items, results)}
        for key, payload in fresh.items():
            payloads[key] = payload
            if cache is not None and payload.get("failure") is None:
                cache.put(key, payload)
    return payloads, hits, len(miss)


def reset_counters() -> None:
    """Zero the engine's compile/simulate counters (zero-work asserts)."""
    COUNTERS.reset()

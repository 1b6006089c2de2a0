"""Candidate evaluation: one heuristic vector = ordinary engine cells.

A candidate is scored by compiling and simulating the **Proposed** scheme
over the workload zoo with its heuristic vector (and machine overrides)
applied — exactly the cell the suite runner would build for the same
inputs, keyed by the same content-addressed
:func:`~repro.engine.keys.cell_key`.  That identity is the whole point:
tune shares the artifact cache with ``tables``/``sweep`` runs, repeated
or resumed searches re-execute nothing, and each round's grid runs
through the same cached loop as a suite
(:func:`repro.engine.pool.run_cached`), so a
:class:`~repro.serve.client.ServeClient` executor absorbs the search
through the ordinary serve protocol with fleet-wide dedup.

Objectives extracted per (candidate, workload) cell:

* ``ipc`` — timing-simulator instructions per cycle (maximize);
* ``code_growth`` — transformed / original static instruction count
  (minimize; the cost axis of the paper's Figure 7 discussion);
* ``compile_cost`` — deterministic transform-count proxy for compile
  time (minimize; see :func:`compile_cost` for why not wall-clock).
"""

from __future__ import annotations

from ..engine.cells import CellSpec, cell_grid

#: The table column every candidate is scored on: the paper's combined
#: speculative+guarded pipeline — the one whose decisions the heuristic
#: vector actually steers.
TUNE_SCHEME = "Proposed"


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
                    max_steps: int) -> list[tuple[str, str, CellSpec]]:
    """The (benchmark, key, spec) grid of one candidate vector.

    One Proposed-scheme cell per workload, keyed exactly like the suite
    runner's Proposed cell for the same inputs (both come from
    :func:`~repro.engine.cells.cell_grid`) — a candidate whose vector
    equals the session default therefore costs nothing after any
    ``tables`` run at the same scale.
    """
    return [(name, key, spec) for name, _, spec, key in cell_grid(
        programs, heur, config_overrides, max_steps,
        columns=(TUNE_SCHEME,))]


def measure(cell, original_len: int) -> dict:
    """Objective vector of one cell's ``SchemeResult`` (``ok=False`` on
    failure)."""
    if not cell.ok or cell.compile_result is None:
        return {"ok": False, "ipc": 0.0, "code_growth": float("inf"),
                "compile_cost": 0, "failure": cell.failure}
    size = len(cell.compile_result.program)
    return {"ok": True,
            "ipc": cell.stats.ipc,
            "code_growth": (size / original_len if original_len else 1.0),
            "compile_cost": compile_cost(cell.compile_result),
            "failure": None}

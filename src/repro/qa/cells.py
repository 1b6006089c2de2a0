"""Fuzz cells: the cacheable, picklable unit of campaign work.

One cell = one generated program, compiled under every fuzz compile of
the scheme table (:func:`repro.core.schemes.fuzz_plan`) and
cross-checked against one reference-simulator run of the original, which
is also the profile every compile takes its feedback from
(:func:`profile_and_reference`).  The cell result is a
plain JSON dict, so it rides the :mod:`repro.engine` machinery
unchanged: :func:`fuzz_cell_key` derives a content-addressed cache key
(strategy config + seed + fuzz scheme names + schema version) and
:data:`FUZZ` is the cell kind every executor (the process pool, a serve
worker) runs it as, cached only when no cell error occurred.

The program itself never travels in the payload — it is regenerated from
``(strategy, seed)`` on demand (shrinking does this in the parent), which
keeps cache entries a few hundred bytes.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Optional

from ..core.pipeline import CompileResult
from ..core.schemes import compile_scheme, fuzz_plan
from ..engine.keys import SCHEMA_VERSION, digest
from ..engine.pool import CellKind
from ..isa.program import Program
from ..obs.trace import span as obs_span
from ..profilefb.profiledb import ProfileDB
from ..robust.diffcheck import Reference
from ..sim.functional import FunctionalSim
from .strategies import BY_NAME, FuzzStrategy

#: Default per-run functional step budget (campaign programs are tiny).
FUZZ_MAX_STEPS = 5_000_000


@dataclass(frozen=True)
class FuzzCellSpec:
    """Picklable description of one fuzz cell."""

    strategy: str                  # lattice name (see repro.qa.strategies)
    seed: int                      # per-program generator seed
    max_steps: int = FUZZ_MAX_STEPS

    def resolve_strategy(self) -> FuzzStrategy:
        """The lattice strategy this cell references."""
        return BY_NAME[self.strategy]

    def program(self) -> Program:
        """Regenerate this cell's program (deterministic)."""
        return self.resolve_strategy().program(self.seed)


def fuzz_cell_key(spec: FuzzCellSpec) -> str:
    """Content-addressed cache key of one fuzz cell.

    Keys on the full generator configuration (not just the strategy name,
    which could be re-pointed at different knobs) plus the scheme plan and
    the engine schema version, so compiler/simulator changes that bump
    :data:`~repro.engine.keys.SCHEMA_VERSION` invalidate fuzz verdicts too.
    """
    return digest({
        "schema": SCHEMA_VERSION,
        "kind": "fuzz-cell",
        "strategy": spec.strategy,
        "config": spec.resolve_strategy().config_dict(),
        "seed": spec.seed,
        "max_steps": spec.max_steps,
        "schemes": [scheme.name for scheme in fuzz_plan()],
    })


def _failing_stage(result: CompileResult) -> Optional[str]:
    """First contained (non-skip) pass failure, if the compile degraded."""
    for f in result.failures:
        if f.kind != "skip":
            return f.stage
    return "fallback" if result.fallback is not None else None


def profile_and_reference(prog: Program, max_steps: int = FUZZ_MAX_STEPS
                          ) -> tuple[ProfileDB, Reference]:
    """Run *prog* once on the reference simulator; return the run as
    *prog*'s profile and as the reference its compiles are checked
    against.

    Whatever the run raises propagates, as a profiling run's would.  At
    fuzz size this run is cheaper than a fast-path profile, whose code
    generation dominates a program this small.
    """
    sim = FunctionalSim(prog, max_steps=max_steps, record_outcomes=True)
    sim.run()
    return ProfileDB.from_sim(prog, sim), Reference(prog, max_steps, sim)


def check_program(prog: Program, max_steps: int = FUZZ_MAX_STEPS) -> dict:
    """Compile *prog* under every fuzz scheme and diff-check each.

    Returns ``{"schemes": {scheme: verdict}, "divergent": [scheme, ...]}``
    — the shared core of :func:`execute_fuzz_cell` and corpus replay.
    """
    # One run of the original feeds every transforming scheme (identical
    # feedback) and is what every scheme is checked against.
    profile, reference = profile_and_reference(prog, max_steps)
    schemes: dict[str, dict] = {}
    divergent: list[str] = []
    for scheme in (s.name for s in fuzz_plan()):
        result = compile_scheme(prog, scheme, profile=profile,
                                max_steps=max_steps)
        report = reference.check(result.program)
        schemes[scheme] = {
            "report": report.to_dict(),
            "fallback": result.fallback,
            "degraded": result.degraded,
            "failing_stage": _failing_stage(result),
        }
        if not report.equivalent:
            divergent.append(scheme)
    return {"schemes": schemes, "divergent": divergent}


def execute_fuzz_cell(spec: FuzzCellSpec) -> dict:
    """Run one fuzz cell; returns a JSON-serializable verdict payload.

    Never raises: a crash anywhere (generation, profiling, compilation
    machinery itself) is contained into an ``"error"`` payload — the
    campaign counts it as a divergence of kind ``cell-error`` so broken
    tooling cannot masquerade as a clean campaign.
    """
    base = {"strategy": spec.strategy, "seed": spec.seed}
    with obs_span("fuzz.cell", strategy=spec.strategy,
                  seed=spec.seed) as sp:
        try:
            prog = spec.program()
            base["program_len"] = len(prog)
            verdicts = check_program(prog, spec.max_steps)
            if verdicts["divergent"]:
                sp.set("divergent", list(verdicts["divergent"]))
            return {**base, **verdicts, "error": None}
        except Exception as exc:  # noqa: BLE001 - containment is the point
            detail = "".join(traceback.format_exception(
                type(exc), exc, exc.__traceback__)[-4:])
            sp.set("cell_error", f"{type(exc).__name__}: {exc}")
            return {**base, "schemes": {}, "divergent": [],
                    "error": f"{type(exc).__name__}: {exc}",
                    "error_detail": detail}


def run_fuzz_cells(specs: list[FuzzCellSpec],
                   programs: Optional[dict] = None) -> list[dict]:
    """Run *specs* in this process, in order (each cell regenerates its
    own program, so *programs* is unused)."""
    return [execute_fuzz_cell(spec) for spec in specs]


def fuzz_ok(payload: dict) -> bool:
    """Whether a fuzz verdict may be cached: no cell error."""
    return payload.get("error") is None


#: Fuzz cells as an executor runs them (see
#: :class:`~repro.engine.pool.CellKind`); a verdict is its own payload.
FUZZ = CellKind("fuzz", run=run_fuzz_cells, ok=fuzz_ok, key=fuzz_cell_key)

"""Fuzz cells: the cacheable, picklable unit of campaign work.

One cell = one generated program, compiled under every scheme in
:data:`FUZZ_SCHEMES` and cross-checked against one functional-simulator
run of the original (:func:`repro.robust.diffcheck.run_reference`).  The
cell result is a plain JSON dict, so it rides the :mod:`repro.engine`
machinery unchanged: :func:`fuzz_cell_key` derives a content-addressed
cache key (strategy config + seed + scheme plan + schema version) and
:func:`execute_fuzz_cell` is a module-level callable the process pool
can pickle.

The program itself never travels in the payload — it is regenerated from
``(strategy, seed)`` on demand (shrinking does this in the parent), which
keeps cache entries a few hundred bytes.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Optional

from ..core.pipeline import (
    CompileResult, compile_baseline, compile_variant,
)
from ..engine.keys import SCHEMA_VERSION, digest
from ..isa.program import Program
from ..obs.trace import span as obs_span
from ..profilefb.profiledb import ProfileDB
from ..robust.diffcheck import run_reference
from .strategies import BY_NAME, FuzzStrategy

#: The campaign's scheme plan: (name, compile_variant toggles).  The
#: baseline schedule, the paper's three transformation schemes, and two
#: variants of them (spectre-fenced speculation and branch melding) — a
#: divergence in *any* of them invalidates the corresponding results.
FUZZ_SCHEMES: tuple[tuple[str, Optional[dict]], ...] = (
    ("baseline", None),                       # local schedule only
    ("speculative", {"ifconvert": False}),    # splitting + speculation
    ("guarded", {"split": False, "speculation": False}),  # if-conversion
    ("combined", {}),                         # the full proposed pipeline
    # speculation behind the Spectre hoist guard: flagged hoists fenced —
    # the certification that fences never change architectural results
    ("safe-speculative", {"ifconvert": False, "spectre": True}),
    # branch melding in place of guarding: both arms run unconditionally
    # into scratch registers, native cmovt/cmovf select the results —
    # renaming plus selects must preserve architectural state exactly
    ("melded", {"split": False, "speculation": False, "meld": True}),
)

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
        "schemes": [name for name, _ in FUZZ_SCHEMES],
    })


def compile_scheme(prog: Program, scheme: str, *,
                   profile: Optional[ProfileDB] = None,
                   max_steps: int = FUZZ_MAX_STEPS) -> CompileResult:
    """Compile *prog* under one named fuzz scheme."""
    toggles = dict(FUZZ_SCHEMES)[scheme]
    if toggles is None:
        return compile_baseline(prog)
    return compile_variant(prog, profile=profile, max_steps=max_steps,
                           **toggles)


def _failing_stage(result: CompileResult) -> Optional[str]:
    """First contained (non-skip) pass failure, if the compile degraded."""
    for f in result.failures:
        if f.kind != "skip":
            return f.stage
    return "fallback" if result.fallback is not None else None


def check_program(prog: Program, max_steps: int = FUZZ_MAX_STEPS) -> dict:
    """Compile *prog* under every fuzz scheme and diff-check each.

    Returns ``{"schemes": {scheme: verdict}, "divergent": [scheme, ...]}``
    — the shared core of :func:`execute_fuzz_cell` and corpus replay.
    """
    # One profiling run feeds every transforming scheme (identical
    # feedback, and profiling is the slowest part of a cell), and one
    # reference run of the original is what every scheme is checked
    # against.
    profile = ProfileDB.from_run(prog, max_steps=max_steps)
    reference = run_reference(prog, max_steps)
    schemes: dict[str, dict] = {}
    divergent: list[str] = []
    for scheme, _ in FUZZ_SCHEMES:
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

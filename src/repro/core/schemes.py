"""The scheme table: every compile the reproduction compares, declared once.

A scheme names one compile: the baseline list-scheduling pipeline, or the
proposed pipeline with some :class:`~repro.core.heuristics.FeedbackHeuristics`
fields overridden on the caller's heuristics.  A row with a predictor is
also a column of Tables 3/4, a labelled column also heads a column of the
improvement summary, and the ``fuzz`` rows are the compiles every fuzz
program is checked under.  Consumers read :data:`SCHEMES` when they run,
so a new scheme is one row plus its transform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..isa.program import Program
from ..profilefb.profiledb import ProfileDB
from .heuristics import DEFAULT_HEURISTICS, FeedbackHeuristics
from .pipeline import CompileResult, compile_baseline, compile_proposed


@dataclass(frozen=True)
class Scheme:
    """One named compile, and its table column if it has a predictor."""

    name: str
    overrides: Optional[tuple] = None  # (field, value) pairs; None: baseline
    predictor: Optional[str] = None    # a table column's branch predictor
    label: Optional[str] = None        # its improvement-summary heading
    fuzz: bool = False                 # fuzz programs are checked under it

    def heuristics(self, heur: FeedbackHeuristics
                   ) -> Optional[FeedbackHeuristics]:
        """*heur* with this scheme's overrides; None for the baseline."""
        return None if self.overrides is None \
            else replace(heur, **dict(self.overrides))


def proposed(**overrides) -> tuple:
    """The overrides of a proposed-pipeline row."""
    return tuple(sorted(overrides.items()))


SCHEMES: tuple[Scheme, ...] = (
    # The paper's three columns, then Proposed fenced (repro.robust.spectre)
    # and melded (repro.transform.meld).
    Scheme("2bitBP", None, "twobit"),
    Scheme("Proposed", proposed(), "twobit", "Proposed"),
    Scheme("PerfectBP", None, "perfect", "Perfect"),
    Scheme("safe-speculative", proposed(spectre_safe=True), "twobit",
           "Safe"),
    Scheme("melded", proposed(enable_meld=True), "twobit", "Melded"),
    # The fuzzer's: the baseline, the title's individual and combined
    # effects, and the fence and the meld each on one transformation.
    Scheme("baseline", None, fuzz=True),
    Scheme("speculative", proposed(enable_ifconvert=False), fuzz=True),
    Scheme("guarded", proposed(enable_split=False, enable_speculation=False),
           fuzz=True),
    Scheme("combined", proposed(), fuzz=True),
    Scheme("speculative-fenced",
           proposed(enable_ifconvert=False, spectre_safe=True), fuzz=True),
    Scheme("guarded-melded",
           proposed(enable_split=False, enable_speculation=False,
                    enable_meld=True), fuzz=True),
)


def get(name: str) -> Scheme:
    """The row named *name*; ``ValueError`` when there is none."""
    for scheme in SCHEMES:
        if scheme.name == name:
            return scheme
    raise ValueError(f"unknown scheme {name!r}")


def columns() -> tuple[Scheme, ...]:
    """The table's columns, in column order."""
    return tuple(s for s in SCHEMES if s.predictor is not None)


def fuzz_plan() -> tuple[Scheme, ...]:
    """The compiles every fuzz program is checked under, in order."""
    return tuple(s for s in SCHEMES if s.fuzz)


def compile_names() -> dict[str, str]:
    """``repro run --scheme`` names of the columns' compiles (``baseline``
    or the column's name in lower case), each mapped to its first column."""
    out: dict[str, str] = {}
    for s in columns():
        out.setdefault("baseline" if s.overrides is None
                       else s.name.lower(), s.name)
    return out


def compile_scheme(prog: Program, scheme: str,
                   heur: FeedbackHeuristics = DEFAULT_HEURISTICS, *,
                   profile: Optional[ProfileDB] = None,
                   max_steps: int = 20_000_000,
                   backend: str = "reference") -> CompileResult:
    """Compile *prog* under the scheme named *scheme* (*profile*,
    *max_steps* and *backend* as for
    :func:`~repro.core.pipeline.compile_proposed`)."""
    compiled = get(scheme).heuristics(heur)
    if compiled is None:
        return compile_baseline(prog)
    return compile_proposed(prog, heur=compiled, profile=profile,
                            max_steps=max_steps, backend=backend)

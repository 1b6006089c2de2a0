"""The production simulator's entry point.

Every cell, profile and CLI simulation runs on :mod:`repro.fastsim`:
the decode-once + generated-step functional executor feeding the
batched-event timing model.  The readable interpreters of
:mod:`repro.sim` are the executable spec, and no option selects them.
They run only where the code picks them:

* the conformance oracle (:mod:`repro.fastsim.check`, ``tests/fastsim``),
  ``robust.diffcheck`` and the qa fuzzer;
* an observed run: an attached ``PipelineObserver`` (``repro run
  --sample``, or the metrics registry enabled) hooks the reference
  cycle loop, so :func:`simulate` runs the reference pair and records
  the decision on :func:`fallback_trail` plus the ``fastsim.fallbacks``
  metric.

Failure contract of :func:`simulate` (the entry point
``engine.cells.counted_simulate`` routes through): whatever the fast
path raises propagates.  A program-semantic failure (step budget,
divergence, unmodeled opcode, alignment fault) is the reference's own
exception with its coordinates, and a fast-path fault (decode, codegen,
a crash in generated code) fails its cell as a named ``FAIL(...)``
through ``execute_cell``'s containment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..isa.program import Program
from ..obs.metrics import REGISTRY
from ..obs.pipeline_obs import PipelineObserver, maybe_observer
from ..sim.config import MachineConfig
from ..sim.functional import FunctionalSim
from ..sim.pipeline import TimingSim
from .decode import decode_program
from .functional import FastFunctionalSim
from .timing import FastTimingSim

_TRAIL_CAP = 64


@dataclass(frozen=True)
class FallbackRecord:
    """One fast→reference fallback decision."""

    stage: str     # "observer"
    reason: str    # one-line classification


_TRAIL: list = []


def _fallback(stage: str, reason: str) -> None:
    if len(_TRAIL) >= _TRAIL_CAP:
        del _TRAIL[0]
    _TRAIL.append(FallbackRecord(stage, reason))
    REGISTRY.inc("fastsim.fallbacks")
    REGISTRY.inc(f"fastsim.fallbacks.{stage}")


def fallback_trail() -> tuple:
    """The recent fast→reference fallback decisions (newest last)."""
    return tuple(_TRAIL)


def clear_fallback_trail() -> None:
    """Forget recorded fallbacks (test isolation)."""
    _TRAIL.clear()


def resolve_backend() -> str:
    """The simulator every run uses: always ``"fast"`` (benchmark
    reports record it)."""
    return "fast"


def simulate(prog: Program, config: MachineConfig,
             max_steps: int = 20_000_000,
             observer: Optional[PipelineObserver] = None) -> tuple:
    """Fast functional + timing simulation of *prog* under *config*.

    Returns ``(SimStats, ExecStats)`` or raises.  With *observer* given
    (or the one :func:`~repro.obs.pipeline_obs.maybe_observer` makes
    when metrics are on), the run is the reference pair with the
    observer attached to its cycle loop.
    """
    if observer is None:
        observer = maybe_observer()
    if observer is not None:
        _fallback("observer", "pipeline observer active")
        fsim = FunctionalSim(prog, max_steps=max_steps,
                             record_outcomes=False)
        stats = TimingSim(config, observer=observer).run(fsim.trace())
        return stats, fsim.stats
    dec = decode_program(prog)
    fsim = FastFunctionalSim(prog, max_steps=max_steps,
                             record_outcomes=False, decoded=dec)
    stats = FastTimingSim(config, decoded=dec).run(fsim.batches())
    return stats, fsim.stats

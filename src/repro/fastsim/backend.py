"""The production simulator's entry point, contained by the reference.

Every cell, profile and CLI simulation runs on :mod:`repro.fastsim`:
the decode-once + generated-step functional executor feeding the
batched-event timing model.  The readable interpreters of
:mod:`repro.sim` are the executable spec, and no option selects them.
They run only where the code picks them:

* the conformance oracle (:mod:`repro.fastsim.check`, ``tests/fastsim``),
  ``robust.diffcheck`` and the qa fuzzer;
* an observed run: an attached ``PipelineObserver`` (``repro run
  --sample``, or the metrics registry enabled) hooks the reference
  cycle loop, so :func:`simulate` runs the reference pair;
* the fallback below.

Containment contract of :func:`simulate` (the entry point
``engine.cells.counted_simulate`` routes through):

* **Program-semantic failures** — ``SimulationError`` subclasses
  (step budget, divergence, unmodeled opcode), alignment faults, float
  conversion errors — propagate unchanged: both simulators fail a cell
  with the same exception, so a FAIL(...) cell payload is the same
  whichever of them ran.
* **Fastsim-internal failures** — decode rejection, codegen syntax
  errors (e.g. the ``fastsim-bad-codegen`` fault), stale decode tables,
  or an unexpected crash inside generated code — are *not* the
  program's fault: the run transparently restarts on the reference
  simulators (deterministic, so a semantic failure would reproduce
  there) and the decision is recorded on :func:`fallback_trail` plus the
  ``fastsim.fallbacks`` metric.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from ..isa.program import Program
from ..obs.metrics import REGISTRY
from ..obs.pipeline_obs import PipelineObserver, maybe_observer
from ..sim.config import MachineConfig
from ..sim.functional import FunctionalSim
from ..sim.memory import AlignmentError
from ..sim.pipeline import TimingSim
from .codegen import get_compiled
from .decode import decode_program
from .functional import FastFunctionalSim
from .timing import FastTimingSim

#: Exceptions that are the *program's* fault: identical on both
#: simulators, so they propagate instead of triggering a fallback.
#: RuntimeError covers SimulationError.
_SEMANTIC = (RuntimeError, AlignmentError, ValueError, OverflowError,
             struct.error)

_TRAIL_CAP = 64


class FastsimError(RuntimeError):
    """An internal fast-path failure (not a program-semantic one)."""


@dataclass(frozen=True)
class FallbackRecord:
    """One fast→reference fallback decision."""

    stage: str     # "decode" | "codegen" | "execute" | "observer"
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


def _short(exc: BaseException) -> str:
    text = str(exc).splitlines()[0] if str(exc) else ""
    name = type(exc).__name__
    return f"{name}: {text}"[:120] if text else name


def resolve_backend() -> str:
    """The simulator every run uses: always ``"fast"`` (benchmark
    reports record it)."""
    return "fast"


def _reference_simulate(prog: Program, config: MachineConfig,
                        max_steps: int,
                        observer: Optional[PipelineObserver] = None
                        ) -> tuple:
    fsim = FunctionalSim(prog, max_steps=max_steps, record_outcomes=False)
    tsim = TimingSim(config, observer=observer)
    stats = tsim.run(fsim.trace())
    return stats, fsim.stats


def simulate(prog: Program, config: MachineConfig,
             max_steps: int = 20_000_000,
             observer: Optional[PipelineObserver] = None) -> tuple:
    """Fast functional + timing simulation with reference fallback.

    Returns ``(SimStats, ExecStats)``.  With *observer* given (or the
    one :func:`~repro.obs.pipeline_obs.maybe_observer` makes when
    metrics are on), the run is the reference pair with the observer
    attached to its cycle loop.
    """
    if observer is None:
        observer = maybe_observer()
    if observer is not None:
        _fallback("observer", "pipeline observer active")
        return _reference_simulate(prog, config, max_steps, observer)
    try:
        dec = decode_program(prog)
    except Exception as exc:
        _fallback("decode", _short(exc))
        return _reference_simulate(prog, config, max_steps)
    try:
        get_compiled(dec, record=False, trace=True)
        fsim = FastFunctionalSim(prog, max_steps=max_steps,
                                 record_outcomes=False, decoded=dec)
        tsim = FastTimingSim(config, decoded=dec)
    except Exception as exc:
        _fallback("codegen", _short(exc))
        return _reference_simulate(prog, config, max_steps)
    try:
        stats = tsim.run(fsim.batches())
    except _SEMANTIC:
        raise
    except Exception as exc:
        # An unexpected crash inside the fast path: rerun on the
        # reference.  Execution is deterministic, so any genuine program
        # failure reproduces there with the canonical exception.
        _fallback("execute", _short(exc))
        return _reference_simulate(prog, config, max_steps)
    return stats, fsim.stats


def functional_sim(prog: Program, max_steps: int = 20_000_000,
                   record_outcomes: bool = True):
    """A generated-step functional simulator (reference fallback).

    Used by profile collection (``ProfileDB.from_run(backend="fast")``);
    exposes the reference surface (``run``, ``stats``, ``index_counts``).
    """
    try:
        dec = decode_program(prog)
        get_compiled(dec, record=record_outcomes, trace=False)
        return FastFunctionalSim(prog, max_steps=max_steps,
                                 record_outcomes=record_outcomes,
                                 decoded=dec)
    except Exception as exc:
        _fallback("codegen", _short(exc))
        return FunctionalSim(prog, max_steps=max_steps,
                             record_outcomes=record_outcomes)

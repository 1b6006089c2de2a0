"""Backend selection and the contained fast-simulation entry point.

Two execution backends exist for every cell:

* ``"fast"`` — :mod:`repro.fastsim`'s decode-once + generated-step
  functional executor feeding the batched-event timing model (the
  default);
* ``"reference"`` — the readable interpreters in :mod:`repro.sim`, the
  arbiter of correctness (the conformance oracle).

Selection is per-run: the ``backend=`` parameter on
:class:`repro.api.Session` / ``run_suite`` / ``execute_cell``, the
``--backend`` CLI flag, or the ``REPRO_BACKEND`` environment variable
(:func:`resolve_backend` arbitrates, explicit argument first).  Engine
cache keys and the serve protocol carry the identifier, so results from
one backend are never served to a request for the other.

Containment contract of :func:`simulate` (the entry point
``engine.cells.counted_simulate`` routes through):

* **Program-semantic failures** — ``SimulationError`` subclasses
  (step budget, divergence, unmodeled opcode), alignment faults, float
  conversion errors — propagate unchanged: both backends fail a cell
  with the same exception, so a FAIL(...) cell payload is
  backend-independent.
* **Fastsim-internal failures** — decode rejection, codegen syntax
  errors (e.g. the ``fastsim-bad-codegen`` fault), stale decode tables,
  or an unexpected crash inside generated code — are *not* the
  program's fault: the run transparently restarts on the reference
  backend (deterministic, so a semantic failure would reproduce there)
  and the decision is recorded on :func:`fallback_trail` plus the
  ``fastsim.fallbacks`` metric.

Observer-instrumented runs (``repro.obs`` pipeline observer) always use
the reference pipeline — the observer hooks the reference cycle loop.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Optional

from ..isa.program import Program
from ..obs.metrics import REGISTRY
from ..obs.pipeline_obs import maybe_observer
from ..sim.config import MachineConfig
from ..sim.functional import ExecStats, FunctionalSim
from ..sim.memory import AlignmentError
from ..sim.pipeline import TimingSim
from ..sim.stats import SimStats
from .codegen import get_compiled
from .decode import decode_program
from .functional import FastFunctionalSim
from .timing import FastTimingSim

#: Valid backend identifiers, in documentation order.
BACKENDS = ("reference", "fast")
#: What :func:`resolve_backend` falls back to: the backend of every entry
#: point (CLI, ``api.Session``/``RunOptions``, ``engine.run_suite`` and
#: ``run_sweep``).  The library functions beneath them take the backend
#: as an argument and default to ``"reference"``, the conformance oracle,
#: so direct calls, the fuzzer and legacy payloads keep their meaning.
DEFAULT_BACKEND = "fast"
#: Environment variable consulted when no explicit backend is given.
ENV_BACKEND = "REPRO_BACKEND"

#: Exceptions that are the *program's* fault: identical on both
#: backends, so they propagate instead of triggering a fallback.
#: RuntimeError covers SimulationError.  The cell watchdog's
#: ``CellTimeout`` is a BaseException and passes every handler here.
_SEMANTIC = (RuntimeError, AlignmentError, ValueError, OverflowError,
             struct.error)

_TRAIL_CAP = 64


class FastsimError(RuntimeError):
    """An internal fast-backend failure (not a program-semantic one)."""


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


def resolve_backend(backend: Optional[str] = None) -> str:
    """Arbitrate the backend: explicit argument > env var > default."""
    if backend is None:
        backend = os.environ.get(ENV_BACKEND) or DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}: expected one of {BACKENDS}")
    return backend


def _reference_simulate(prog: Program, config: MachineConfig,
                        max_steps: int) -> tuple:
    fsim = FunctionalSim(prog, max_steps=max_steps, record_outcomes=False)
    tsim = TimingSim(config, observer=maybe_observer())
    stats = tsim.run(fsim.trace())
    return stats, fsim.stats


def simulate(prog: Program, config: MachineConfig,
             max_steps: int = 20_000_000) -> tuple:
    """Fast functional + timing simulation with reference fallback.

    Returns ``(SimStats, ExecStats)`` exactly like the reference pair in
    ``engine.cells.counted_simulate``.
    """
    if maybe_observer() is not None:
        _fallback("observer", "pipeline observer active")
        return _reference_simulate(prog, config, max_steps)
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
    """A functional simulator on the fast backend (reference fallback).

    Used by profile collection (``ProfileDB.from_run``) when the run is
    on the fast backend; exposes the reference surface (``run``,
    ``stats``, ``index_counts``).
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

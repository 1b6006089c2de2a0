"""The production simulator's entry point.

Every cell, profile and CLI simulation runs on :mod:`repro.fastsim`:
the decode-once + generated-step functional executor feeding the
batched-event timing model, observed runs (``repro run --sample``)
included.  The readable interpreters of :mod:`repro.sim` are the
executable spec, and no option selects them.  They run only where the
code picks them: the conformance oracle (:mod:`repro.fastsim.check`,
``tests/fastsim``), ``robust.diffcheck`` and the qa fuzzer.

Failure contract of :func:`simulate` (the entry point
``engine.cells.counted_simulate`` routes through): whatever the fast
path raises propagates.  A program-semantic failure (step budget,
divergence, unmodeled opcode, alignment fault) is the reference's own
exception with its coordinates, and a fast-path fault (decode, codegen,
a crash in generated code) fails its cell as a named ``FAIL(...)``
through ``execute_cell``'s containment.
"""

from __future__ import annotations

from typing import Optional

from ..isa.program import Program
from ..obs.pipeline_obs import PipelineObserver
from ..sim.config import MachineConfig
from .decode import decode_program
from .functional import FastFunctionalSim
from .timing import FastTimingSim


# ``perfbench/run.py`` imports the next three names to record the
# simulator and the fast->reference fallbacks of its runs.  No run falls
# back, so the trail is always empty; the names go when the benchmark
# harness stops importing them.

def fallback_trail() -> tuple:
    """The recorded fast->reference fallbacks: always ``()``."""
    return ()


def clear_fallback_trail() -> None:
    """Forget recorded fallbacks (there are none)."""


def resolve_backend() -> str:
    """The simulator every run uses: always ``"fast"``."""
    return "fast"


def simulate(prog: Program, config: MachineConfig,
             max_steps: int = 20_000_000,
             observer: Optional[PipelineObserver] = None) -> tuple:
    """Fast functional + timing simulation of *prog* under *config*.

    Returns ``(SimStats, ExecStats)`` or raises.  With *observer* given,
    the functional run's batch stream passes through its sampler on the
    way to the timing model.
    """
    dec = decode_program(prog)
    fsim = FastFunctionalSim(prog, max_steps=max_steps,
                             record_outcomes=False, decoded=dec)
    batches = fsim.batches()
    if observer is not None:
        batches = observer.sample(batches)
    stats = FastTimingSim(config, decoded=dec).run(batches)
    return stats, fsim.stats

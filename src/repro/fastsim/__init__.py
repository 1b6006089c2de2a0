"""The production simulator: decode-once lowering + specialized-step codegen.

The reference simulators (:mod:`repro.sim.functional`,
:mod:`repro.sim.pipeline`) interpret one :class:`Instruction` object per
dynamic step — string opcode dispatch, dict-keyed register files, one
method call per trace entry.  That is the right shape for a readable
model and exactly the wrong shape for sweep/fuzz/serve throughput, where
the artifact cache is cold by construction.

This package is the *semantically identical* execution path every run
uses, with the reference simulators kept as its oracle:

* :mod:`repro.fastsim.decode` — a decode-once pass lowering a program to
  dense per-PC operand tables plus a basic-block index, shared by both
  fast simulators;
* :mod:`repro.fastsim.codegen` — ``exec``-compiles one straight-line
  Python function per basic block (superblock dispatch: fall through
  inside a block, branch logic only at block ends);
* :mod:`repro.fastsim.functional` — :class:`FastFunctionalSim`, the
  generated-step functional executor producing the same
  :class:`~repro.sim.functional.ExecStats` and a batched trace stream;
* :mod:`repro.fastsim.timing` — :class:`FastTimingSim`, a batched-event
  restructuring of the per-cycle loop that skips cycles with no pipeline
  activity (mispredict recovery, fence drains, icache refills, the final
  ROB drain);
* :mod:`repro.fastsim.backend` — the contained entry point used by
  :mod:`repro.engine.cells`: internal fastsim faults and observed runs
  go to the reference interpreter (faults also record a decision
  trail), while program-semantic failures propagate byte-identically;
* :mod:`repro.fastsim.check` — fast-vs-reference diffcheck helpers built
  on :mod:`repro.robust.diffcheck`.

Equality contract: for any program and any machine config, the fast
path produces ``SimStats``/``ExecStats`` payloads whose serde dicts
equal the reference simulators' — enforced by ``tests/fastsim``.
"""

from .backend import FastsimError, fallback_trail, simulate
from .check import crosscheck, crosscheck_cell
from .decode import DecodedProgram, decode_program
from .functional import FastFunctionalSim
from .timing import FastTimingSim

__all__ = [
    "FastsimError", "DecodedProgram", "decode_program", "FastFunctionalSim",
    "FastTimingSim", "simulate", "fallback_trail",
    "crosscheck", "crosscheck_cell",
]

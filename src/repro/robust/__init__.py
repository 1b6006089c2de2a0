"""Crash containment for the compile/simulate stack.

Four cooperating layers (see ``docs/ROBUSTNESS.md``):

* :mod:`~repro.robust.verifier` — static IR invariants, checked after
  every pass;
* :mod:`~repro.robust.sandbox` — per-pass snapshot/rollback so a crashing
  or invariant-breaking pass degrades the compile instead of killing it;
* :mod:`~repro.robust.diffcheck` — bounded co-simulation proving the
  transformed program preserves architectural behavior;
* :mod:`~repro.robust.faults` — the fault-injection taxonomy that proves
  the other three layers actually catch what they claim to;
* :mod:`~repro.robust.spectre` — speculative-safety (Spectre-v1) taint
  analysis and the hoist guard behind the safe-speculative scheme.
"""

from .verifier import (
    VerificationError, Violation, assert_valid, verify_cfg, verify_program,
)
from .sandbox import (
    FAILURE_KINDS, PassFailure, PassSandbox, restore_cfg, snapshot_cfg,
)
from .diffcheck import (
    DIVERGENCE_KINDS, DiffReport, EquivalenceError, Reference, certify,
    check_equivalence, run_reference,
)
from .faults import (
    CLOBBER_VALUE, FaultClass, PASS_FAULTS, PROFILE_FAULTS, PROGRAM_FAULTS,
    buggy_pass, corrupt_profile, inject_program_fault,
)
from .spectre import (
    FINDING_KINDS, SpectreConfig, SpectreFinding, SpectreHoistGuard,
    TAINT_SECRET, TAINT_UNTRUSTED, UNTRUSTED_REGS, analyze_cfg,
    analyze_program, taint_fixpoint,
)

__all__ = [
    "VerificationError", "Violation", "assert_valid", "verify_cfg",
    "verify_program",
    "FAILURE_KINDS", "PassFailure", "PassSandbox", "restore_cfg",
    "snapshot_cfg",
    "DIVERGENCE_KINDS", "DiffReport", "EquivalenceError", "Reference",
    "certify", "check_equivalence", "run_reference",
    "CLOBBER_VALUE", "FaultClass", "PASS_FAULTS",
    "PROFILE_FAULTS", "PROGRAM_FAULTS", "buggy_pass", "corrupt_profile",
    "inject_program_fault",
    "FINDING_KINDS", "SpectreConfig", "SpectreFinding", "SpectreHoistGuard",
    "TAINT_SECRET", "TAINT_UNTRUSTED", "UNTRUSTED_REGS", "analyze_cfg",
    "analyze_program", "taint_fixpoint",
]

"""Hypothesis property: the melded scheme is semantics-preserving and
backend-identical across the whole qa strategy lattice (ISSUE 10).

For every (strategy, seed) program the fuzz lattice can generate:

1. the melded compile (proposed pipeline with ``enable_meld``) verifies
   against the robust IR checker,
2. the melded program's architectural outcome equals the original's
   (:func:`check_equivalence` — memory image + halt state, the same
   oracle the differential fuzzer uses), and
3. the fast backend executes the melded program identically to the
   reference simulator — final registers, condition codes, and the full
   ``ExecStats`` payload.

Melding renames arm defs onto scratch registers and reconverges through
``cmovt``/``cmovf`` selects, so register checks are restricted to what
:func:`check_equivalence` certifies (architectural memory + halt) for
(2), while (3) compares the *same* program across backends and therefore
demands exact state equality.

``derandomize=True`` keeps tier-1 deterministic; the exhaustive per-zoo
corpus coverage of the melded compiles lives in ``test_conformance.py``
(which parametrizes over every compile of :mod:`repro.core.schemes`).
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.heuristics import DEFAULT_HEURISTICS
from repro.core.pipeline import compile_proposed
from repro.fastsim.functional import FastFunctionalSim
from repro.qa.strategies import BY_NAME
from repro.robust import check_equivalence, verify_program
from repro.sim.functional import FunctionalSim

STEP_BUDGET = 200_000
LATTICE = sorted(BY_NAME)
MELD_HEUR = replace(DEFAULT_HEURISTICS, enable_meld=True)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(LATTICE), seed=st.integers(0, 4095))
def test_melded_scheme_conforms_on_both_backends(name, seed):
    prog = BY_NAME[name].program(seed)
    melded = compile_proposed(prog, heur=MELD_HEUR,
                              max_steps=STEP_BUDGET).program

    violations = verify_program(melded)
    assert violations == [], f"{name}-{seed}: {violations[:3]}"

    diff = check_equivalence(prog, melded, max_steps=STEP_BUDGET)
    assert diff, f"{name}-{seed}: {diff.reason}"

    ref = FunctionalSim(melded, max_steps=STEP_BUDGET * 8,
                        record_outcomes=True)
    fast = FastFunctionalSim(melded, max_steps=STEP_BUDGET * 8,
                             record_outcomes=True)
    r_fail = f_fail = None
    try:
        ref.run()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        r_fail = f"{type(exc).__name__}: {exc}"
    try:
        fast.run()
    except Exception as exc:  # noqa: BLE001
        f_fail = f"{type(exc).__name__}: {exc}"
    assert r_fail == f_fail, \
        f"{name}-{seed}: failure mismatch {r_fail!r} vs {f_fail!r}"
    assert ref.stats.to_dict() == fast.stats.to_dict(), \
        f"{name}-{seed}: melded ExecStats diverged across backends"
    if r_fail is None:
        assert ref.regs == fast.regs, f"{name}-{seed}: registers diverged"
        assert ref.ccregs == fast.ccregs, f"{name}-{seed}: ccs diverged"


@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(LATTICE), seed=st.integers(0, 4095))
def test_meld_knob_roundtrip_matches_direct_compile(name, seed):
    # The engine's "meld" cell kind is just enable_meld on the default
    # heuristics: compiling twice must be deterministic, so cached melded
    # cells replay to the same program bytes.
    prog = BY_NAME[name].program(seed)
    a = compile_proposed(prog, heur=MELD_HEUR, max_steps=STEP_BUDGET)
    b = compile_proposed(prog, heur=MELD_HEUR, max_steps=STEP_BUDGET)
    assert a.program.to_dict() == b.program.to_dict()
    assert a.melds_applied == b.melds_applied

"""Fastsim containment: internal faults fall back, semantic faults agree.

The fast path's contract has two halves (``docs/FASTSIM.md``):

1. An *internal* fastsim failure (broken codegen, stale decode tables, a
   non-semantic crash inside generated code) must never change results —
   the run transparently restarts on the reference interpreter, the
   decision lands on the fallback trail with the stage that contained
   it, and the payload is byte-identical to a pure reference run.
2. A *program-semantic* failure (``UnmodeledOpcode``, step budgets,
   alignment traps) must NOT be repaired — both simulators raise the
   same exception and the engine records the same ``FAIL(...)`` cell.

Injection uses :mod:`repro.fastsim.faults` — the same fault classes
``tools/inject_faults.py --fastsim`` sweeps from the command line.
"""

import json
import traceback

import pytest

from repro.core.schemes import compile_scheme
from repro.engine.cells import CellSpec, _short_reason, execute_cell
from repro.fastsim import backend as fb
from repro.fastsim.faults import FASTSIM_FAULTS, inject_fastsim_fault
from repro.obs.metrics import REGISTRY
from repro.sim.config import r10k_config
from repro.sim.functional import FunctionalSim, UnmodeledOpcode
from repro.sim.pipeline import TimingSim
from repro.workloads import benchmark_programs

MAX_STEPS = 5_000_000

#: fault name -> stage that must appear on the fallback trail
EXPECTED_STAGE = {
    "fastsim-bad-codegen": "codegen",
    "fastsim-stale-decode": "codegen",
    "fastsim-runtime-crash": "execute",
}


@pytest.fixture(scope="module")
def prog():
    return benchmark_programs(scale=0.05)["grep"]


@pytest.fixture(scope="module")
def reference(prog):
    fsim = FunctionalSim(prog, max_steps=MAX_STEPS, record_outcomes=False)
    stats = TimingSim(r10k_config("twobit")).run(fsim.trace())
    return stats.to_dict(), fsim.stats.to_dict()


@pytest.fixture(autouse=True)
def _clean_trail():
    fb.clear_fallback_trail()
    yield
    fb.clear_fallback_trail()


def _count(name):
    return REGISTRY.snapshot()["counters"].get(name, 0)


def test_fault_table_matches_expected_stages():
    assert sorted(FASTSIM_FAULTS) == sorted(EXPECTED_STAGE)


@pytest.mark.parametrize("fault", sorted(FASTSIM_FAULTS))
def test_internal_fault_contained_with_trail(fault, prog, reference):
    with inject_fastsim_fault(fault):
        stats, exec_stats = fb.simulate(prog, r10k_config("twobit"),
                                        max_steps=MAX_STEPS)
    # Result repaired: byte-identical to the reference interpreter.
    assert (stats.to_dict(), exec_stats.to_dict()) == reference
    # Decision recorded: right stage, classified reason.
    trail = fb.fallback_trail()
    assert trail, f"{fault}: no fallback recorded"
    rec = trail[-1]
    assert rec.stage == EXPECTED_STAGE[fault]
    assert rec.reason  # one-line classification, never empty


def test_observer_runs_fall_back_and_are_counted(prog, reference):
    # Metrics on => pipeline observer active => the fast path must yield
    # to the reference pipeline (the observer hooks its cycle loop), and
    # with the registry enabled the fallback metric actually counts.
    REGISTRY.enable()
    try:
        before = _count("fastsim.fallbacks")
        stats, exec_stats = fb.simulate(prog, r10k_config("twobit"),
                                        max_steps=MAX_STEPS)
        assert exec_stats.to_dict() == reference[1]
        rec = fb.fallback_trail()[-1]
        assert rec.stage == "observer"
        assert _count("fastsim.fallbacks") == before + 1
        assert _count("fastsim.fallbacks.observer") >= 1
    finally:
        REGISTRY.disable()


def test_clean_run_leaves_no_trail(prog, reference):
    stats, exec_stats = fb.simulate(prog, r10k_config("twobit"),
                                    max_steps=MAX_STEPS)
    assert (stats.to_dict(), exec_stats.to_dict()) == reference
    assert fb.fallback_trail() == ()


def test_injection_restores_pristine_fast_path(prog, reference):
    with inject_fastsim_fault("fastsim-bad-codegen"):
        pass
    stats, exec_stats = fb.simulate(prog, r10k_config("twobit"),
                                    max_steps=MAX_STEPS)
    assert (stats.to_dict(), exec_stats.to_dict()) == reference
    assert fb.fallback_trail() == ()


@pytest.mark.parametrize("fault", sorted(FASTSIM_FAULTS))
def test_engine_cell_survives_injected_fault(fault, prog):
    # Containment must hold one layer up too: a cell under an injected
    # fastsim fault falls back to the reference simulators and produces
    # the same SUCCESS payload as the clean fast-path cell — not a
    # FAIL(...) record.
    spec = CellSpec(benchmark="grep", scheme="2bitBP", program=prog.to_dict(),
                    max_steps=MAX_STEPS, strict=True)
    clean = execute_cell(spec, program=prog).to_dict()
    assert fb.fallback_trail() == ()
    with inject_fastsim_fault(fault):
        faulted = execute_cell(spec, program=prog).to_dict()
    assert json.dumps(clean, sort_keys=True) == \
        json.dumps(faulted, sort_keys=True)
    assert faulted["failure"] is None
    assert fb.fallback_trail()


def test_unmodeled_opcode_fails_identically(prog):
    # The other half of the contract: semantic faults are NOT repaired.
    bad = prog.copy()
    idx = next(i for i, ins in enumerate(bad.instructions)
               if not ins.is_control and not ins.info.is_call)
    bad.instructions[idx].op = "__undocumented_op__"

    with pytest.raises(UnmodeledOpcode):
        fb.simulate(bad, r10k_config("twobit"), max_steps=MAX_STEPS)
    assert fb.fallback_trail() == ()  # a raise is not a fallback

    spec = CellSpec(benchmark="grep", scheme="2bitBP", program=bad.to_dict(),
                    max_steps=MAX_STEPS)
    cell = execute_cell(spec, program=bad).to_dict()
    assert cell["failure"].startswith("UnmodeledOpcode")
    assert cell["stats"] is None
    # The reference simulators fail the cell's compile with the same
    # exception, so the classified failure is the same either way.
    compiled = compile_scheme(bad, "2bitBP", max_steps=MAX_STEPS).program
    fsim = FunctionalSim(compiled, max_steps=MAX_STEPS, record_outcomes=False)
    with pytest.raises(UnmodeledOpcode) as info:
        TimingSim(r10k_config("twobit")).run(fsim.trace())
    assert cell["failure"] == _short_reason(info.value)
    last = cell["failure_detail"].strip().splitlines()[-1]
    assert last == "".join(traceback.format_exception_only(
        info.type, info.value)).strip()

"""Fuzz cells: keys, execution, and crash containment."""

import dataclasses
import random

import pytest

from repro.core.schemes import fuzz_plan
from repro.qa import cells
from repro.qa.cells import (
    FUZZ_MAX_STEPS, FuzzCellSpec, check_program, execute_fuzz_cell,
    fuzz_cell_key,
)

FUZZ_NAMES = {s.name for s in fuzz_plan()}
from repro.qa.strategies import BY_NAME
from repro.robust.diffcheck import check_equivalence
from repro.robust.faults import inject_program_fault
from repro.sim.functional import FunctionalSim


def test_fuzz_cell_key_stable_and_sensitive():
    spec = FuzzCellSpec("loops", 42)
    assert fuzz_cell_key(spec) == fuzz_cell_key(FuzzCellSpec("loops", 42))
    assert fuzz_cell_key(spec) != fuzz_cell_key(FuzzCellSpec("loops", 43))
    assert fuzz_cell_key(spec) != fuzz_cell_key(FuzzCellSpec("memory", 42))
    assert fuzz_cell_key(spec) != fuzz_cell_key(
        dataclasses.replace(spec, max_steps=spec.max_steps + 1))


def test_execute_fuzz_cell_clean_payload():
    payload = execute_fuzz_cell(FuzzCellSpec("diamonds", 7))
    assert payload["error"] is None
    assert payload["divergent"] == []
    assert set(payload["schemes"]) == FUZZ_NAMES
    for verdict in payload["schemes"].values():
        assert verdict["report"]["equivalent"] is True
        assert verdict["report"]["kind"] == "equivalent"


def test_execute_fuzz_cell_contains_crashes():
    payload = execute_fuzz_cell(FuzzCellSpec("no-such-strategy", 0))
    assert payload["error"] is not None
    assert payload["schemes"] == {}
    assert "KeyError" in payload["error"]


def test_check_program_runs_all_schemes():
    prog = BY_NAME["guarded"].program(3)
    verdicts = check_program(prog)
    assert verdicts["divergent"] == []
    assert len(verdicts["schemes"]) == len(FUZZ_NAMES)


def test_payload_is_json_serializable():
    import json

    payload = execute_fuzz_cell(FuzzCellSpec("calls", 5))
    assert json.loads(json.dumps(payload)) == payload


def test_check_program_runs_the_original_twice(monkeypatch):
    """One profiling run and one reference run of the original, then one
    compile and one run per scheme: 6 compiles and 8 simulators."""
    prog = BY_NAME["loops"].program(3)
    made = []
    init = FunctionalSim.__init__
    compiled = []
    compile_scheme = cells.compile_scheme

    def counting_init(self, program, *args, **kwargs):
        made.append(program)
        init(self, program, *args, **kwargs)

    def counting_compile(prog, scheme, **kwargs):
        compiled.append(scheme)
        return compile_scheme(prog, scheme, **kwargs)

    monkeypatch.setattr(FunctionalSim, "__init__", counting_init)
    monkeypatch.setattr(cells, "compile_scheme", counting_compile)
    verdicts = check_program(prog)
    assert verdicts["divergent"] == []
    assert len(compiled) == len(FUZZ_NAMES) == 6
    assert len(made) == 2 + len(FUZZ_NAMES) == 8
    assert sum(p is prog for p in made) == 2


#: Faults written into two schemes' compiled programs, so the shared
#: reference is also compared with divergent programs.
_MISCOMPILES = {"speculative": "clobbered-register",
                "guarded": "branch-retarget"}


@pytest.mark.parametrize("strategy,seed", [
    ("loops", 3), ("memory", 1), ("calls", 2), ("phased", 4),
])
def test_check_program_verdicts_equal_one_shot_checks(strategy, seed,
                                                      monkeypatch):
    compiled = {}
    compile_scheme = cells.compile_scheme

    def recording_compile(prog, scheme, **kwargs):
        result = compile_scheme(prog, scheme, **kwargs)
        if scheme in _MISCOMPILES:
            result.program = next(inject_program_fault(
                _MISCOMPILES[scheme], result.program, random.Random(0)),
                result.program)
        compiled[scheme] = result.program
        return result

    monkeypatch.setattr(cells, "compile_scheme", recording_compile)
    prog = BY_NAME[strategy].program(seed)
    verdicts = check_program(prog)
    assert set(compiled) == FUZZ_NAMES
    for scheme, program in compiled.items():
        one_shot = check_equivalence(prog, program, max_steps=FUZZ_MAX_STEPS)
        assert verdicts["schemes"][scheme]["report"] == one_shot.to_dict()

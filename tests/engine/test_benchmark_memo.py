"""BenchmarkMemo: a benchmark's cells share one profile per input and one
simulation per distinct (compiled program, machine), on the suite-runner
path and the pool path alike (with built programs or only payloads), and
every payload equals what the cell returns when it runs alone."""

import json
from dataclasses import replace

import pytest

from repro.core import schemes
from repro.core.heuristics import DEFAULT_HEURISTICS
from repro.engine.cells import (CELLS, COUNTERS, BenchmarkMemo, CellSpec,
                                execute_cell, execute_cells)
from repro.engine.pool import LocalExecutor
from repro.engine.suite import run_suite
from repro.isa import parse
from repro.profilefb.profiledb import ProfileDB
from repro.workloads import benchmark_programs
from tests.robust.test_spectre import GADGET_LOOP

MAX_STEPS = 5_000_000


def _specs(name, prog, heur):
    payload = prog.to_dict()
    return [CellSpec(benchmark=name, scheme=s.name, program=payload,
                     heur=heur, max_steps=MAX_STEPS)
            for s in schemes.columns()]


def _via_runner(name, prog, heur):
    """The suite runner (``Session.run_suite`` and the ingest goldens
    come this way) on the caller's built program."""
    run = run_suite(benchmarks={name: prog}, heur=heur,
                    max_steps=MAX_STEPS)[name]
    return [run.results[s.name].to_dict() for s in schemes.columns()]


def _via_pool(name, prog, heur):
    cells = execute_cells(_specs(name, prog, heur), {name: prog})
    return [cell.to_dict() for cell in cells]


def _via_payloads(name, prog, heur):
    """The local executor with no built programs: each cell's program
    travels only as its payload."""
    cells = LocalExecutor().run(
        CELLS, [(str(i), spec)
                for i, spec in enumerate(_specs(name, prog, heur))])
    return [cell.to_dict() for cell in cells]


PATHS = {"runner": _via_runner, "pool": _via_pool,
         "payloads": _via_payloads}


def _alone(name, prog, heur):
    """Every cell run by itself, with no memo."""
    return [execute_cell(spec).to_dict()
            for spec in _specs(name, prog, heur)]


def _counted(monkeypatch, path, name, prog, heur):
    """(payloads by scheme, profiling runs, simulations) on *path*."""
    runs = []
    real = ProfileDB.from_run

    def counting(*args, **kwargs):
        runs.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(ProfileDB, "from_run", counting)
    COUNTERS.reset()
    payloads = PATHS[path](name, prog, heur)
    profiles, sims = len(runs), COUNTERS.simulates
    assert json.dumps(payloads, sort_keys=True) == \
        json.dumps(_alone(name, prog, heur), sort_keys=True)
    return {p["scheme"]: p for p in payloads}, profiles, sims


@pytest.mark.parametrize("path", sorted(PATHS))
def test_stock_benchmark_profiles_once_and_simulates_four_times(
        monkeypatch, path):
    prog = benchmark_programs(0.01)["compress"]
    cells, profiles, sims = _counted(monkeypatch, path, "compress", prog,
                                     DEFAULT_HEURISTICS)
    assert profiles == 1
    # The guard fences nothing here, so safe-speculative compiles to the
    # Proposed program and replays its simulation: 2bitBP, PerfectBP,
    # Proposed and melded simulate.
    assert cells["safe-speculative"]["compile_result"]["program"] \
        == cells["Proposed"]["compile_result"]["program"]
    assert sims == 4
    assert all(c["failure"] is None for c in cells.values())


@pytest.mark.parametrize("path", sorted(PATHS))
def test_fenced_safe_program_gets_its_own_simulation(monkeypatch, path):
    prog = parse(GADGET_LOOP, name="gadget-loop")
    heur = replace(DEFAULT_HEURISTICS, enable_ifconvert=False)
    cells, profiles, sims = _counted(monkeypatch, path, "gadget", prog,
                                     heur)
    safe = cells["safe-speculative"]["compile_result"]
    assert safe["region_report"]["fenced"] > 0
    assert safe["program"] != cells["Proposed"]["compile_result"]["program"]
    assert profiles == 1
    # Without if-conversion there is nothing to meld, so melded replays
    # Proposed: 2bitBP, PerfectBP, Proposed and safe-speculative simulate.
    assert cells["melded"]["compile_result"]["program"] \
        == cells["Proposed"]["compile_result"]["program"]
    assert sims == 4


@pytest.mark.parametrize("path", sorted(PATHS))
def test_failed_profile_fails_the_proposed_pipeline_cells(monkeypatch, path):
    prog = benchmark_programs(0.01)["compress"]
    healthy = PATHS[path]("compress", prog, DEFAULT_HEURISTICS)

    def broken(*args, **kwargs):
        raise RuntimeError("profiler down")

    monkeypatch.setattr(ProfileDB, "from_run", broken)
    payloads = PATHS[path]("compress", prog, DEFAULT_HEURISTICS)
    # The profile is the memo's, so its fault reaches execute_cell: the
    # proposed-pipeline cells fail by name, and the baseline cells never
    # profile.
    for s, cell, before in zip(schemes.columns(), payloads, healthy):
        if s.overrides is None:
            assert cell == before, s.name
        else:
            assert cell["failure"] == "RuntimeError: profiler down", s.name
            assert cell["stats"] is None


def test_memo_never_lends_a_profile_to_another_program(monkeypatch):
    """Two builds of one payload are different programs to the memo:
    their instruction uids differ, so neither may use the other's
    profile or compile."""
    runs = []
    real = ProfileDB.from_run

    def counting(*args, **kwargs):
        runs.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(ProfileDB, "from_run", counting)
    prog = benchmark_programs(0.01)["compress"]
    specs = [replace(spec, program=prog.to_dict())
             for spec in _specs("compress", prog, DEFAULT_HEURISTICS)]
    memo = BenchmarkMemo()
    payloads = [execute_cell(spec, memo=memo).to_dict()
                for spec in specs]
    # prop, safe and meld each profile their own build.
    assert len(runs) == 3 and len({id(p) for p in runs}) == 3
    assert json.dumps(payloads, sort_keys=True) == json.dumps(
        _alone("compress", prog, DEFAULT_HEURISTICS), sort_keys=True)

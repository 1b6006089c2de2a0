"""BenchmarkMemo: a benchmark's cells share one profile per input and one
simulation per distinct (compiled program, machine), on the serial-runner
path and the pool path alike (with built programs or only payloads), and
every payload equals what the cell returns when it runs alone."""

import json
from dataclasses import replace

import pytest

from repro.core.heuristics import DEFAULT_HEURISTICS
from repro.engine.cells import (COUNTERS, SCHEME_PLAN, BenchmarkMemo,
                                CellSpec, execute_cell)
from repro.engine.pool import _run_serial, run_cells
from repro.eval.runner import run_benchmark_impl
from repro.fastsim.backend import resolve_backend
from repro.isa import parse
from repro.profilefb.profiledb import ProfileDB
from repro.workloads import benchmark_programs
from tests.robust.test_spectre import GADGET_LOOP

MAX_STEPS = 5_000_000


def _specs(name, prog, heur):
    payload = prog.to_dict()
    return [CellSpec(benchmark=name, scheme=scheme, kind=kind,
                     predictor=predictor, program=payload, heur=heur,
                     max_steps=MAX_STEPS, backend=resolve_backend())
            for scheme, kind, predictor in SCHEME_PLAN]


def _via_runner(name, prog, heur):
    run = run_benchmark_impl(name, prog, heur=heur, max_steps=MAX_STEPS,
                             backend=resolve_backend())
    return [run.results[scheme].to_dict() for scheme, _, _ in SCHEME_PLAN]


def _via_pool(name, prog, heur):
    return _run_serial(_specs(name, prog, heur), {name: prog})


def _via_payloads(name, prog, heur):
    """The public pool entry with no built programs: each cell's program
    travels only as its payload."""
    return run_cells(_specs(name, prog, heur))


PATHS = {"runner": _via_runner, "pool": _via_pool,
         "payloads": _via_payloads}


def _alone(name, prog, heur):
    """Every cell run by itself, with no memo."""
    return [execute_cell(spec) for spec in _specs(name, prog, heur)]


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
def test_failed_profile_fails_every_compile_as_before(monkeypatch, path):
    runs = []

    def broken(*args, **kwargs):
        runs.append(1)
        raise RuntimeError("profiler down")

    monkeypatch.setattr(ProfileDB, "from_run", broken)
    prog = benchmark_programs(0.01)["compress"]
    payloads = PATHS[path]("compress", prog, DEFAULT_HEURISTICS)
    # A failure is never shared: prop, safe and meld each profile, fail
    # and fall back to the baseline schedule by themselves.
    assert len(runs) == 3
    for (scheme, kind, _), cell in zip(SCHEME_PLAN, payloads):
        cr = cell["compile_result"]
        if kind == "base":
            assert cr["failures"] == []
        else:
            assert cr["fallback"] == "baseline", scheme
            assert cr["failures"][0]["stage"] == "profile"
            assert "profiler down" in cr["failures"][0]["reason"]
    assert json.dumps(payloads, sort_keys=True) == json.dumps(
        _alone("compress", prog, DEFAULT_HEURISTICS), sort_keys=True)


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
    payloads = [execute_cell(spec, memo=memo) for spec in specs]
    # prop, safe and meld each profile their own build.
    assert len(runs) == 3 and len({id(p) for p in runs}) == 3
    assert json.dumps(payloads, sort_keys=True) == json.dumps(
        _alone("compress", prog, DEFAULT_HEURISTICS), sort_keys=True)

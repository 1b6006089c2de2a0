"""A warm replay parses nothing.

A cache hit costs a file read plus stats deserialization: the compiled
program in a cached payload is built only when ``CompileResult.program``
is read, and each input program is printed and encoded once for all of
its cells' keys.  The lazy payload must serialize exactly like the eager
one, and the shared grid must key exactly like :func:`cell_key`.
"""

import dataclasses
import json
import os
import pickle

import pytest

import repro.isa.parser as parser_mod
import repro.isa.printer as printer_mod
from repro.core import schemes
from repro.core.heuristics import DEFAULT_HEURISTICS
from repro.core.pipeline import CompileResult
from repro.engine import ArtifactCache, LocalExecutor, run_suite
from repro.engine.cells import cell_grid, spec_key
from repro.engine.keys import (
    SCHEMA_VERSION, cell_key, digest, program_fingerprint,
)
from repro.eval.runner import suite_to_dict
from repro.isa import Program
from repro.serve.client import suite_cells
from repro.tune.evaluate import TUNE_SCHEME, candidate_cells
from repro.workloads import benchmark_programs

SCALE = 0.1
MAX_STEPS = 50_000_000
SEEDS = (None, 7)


def _as_json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _count_calls(monkeypatch, module, name) -> list:
    """Count calls of ``module.name``; returns the (growing) call list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture(scope="module")
def stock(tmp_path_factory):
    """Cold-filled stock suites: ``{seed: (programs, cache, runs)}``,
    each with its own artifact cache."""
    out = {}
    for seed in SEEDS:
        programs = benchmark_programs(SCALE, seed=seed)
        cache = ArtifactCache(tmp_path_factory.mktemp("cache"))
        runs = run_suite(SCALE, benchmarks=programs, cache=cache)
        assert all(run.ok for run in runs.values())
        out[seed] = (programs, cache, runs)
    return out


def test_warm_replay_parses_nothing(stock, monkeypatch, engine_work):
    programs, cache, cold = stock[None]
    parses = _count_calls(monkeypatch, parser_mod, "parse")
    prints = _count_calls(monkeypatch, printer_mod, "format_program")
    engine_work.reset()
    cache = ArtifactCache(cache.root)   # fresh counters on the warm store
    warm = run_suite(SCALE, benchmarks=programs, cache=cache)
    assert len(parses) == 0
    assert len(prints) == len(programs)  # one per input program
    assert (engine_work.compiles, engine_work.simulates) == (0, 0)
    assert (cache.counters.hits, cache.counters.misses) == \
        (len(programs) * len(schemes.columns()), 0)
    assert _as_json(suite_to_dict(warm)) == _as_json(suite_to_dict(cold))


def test_pool_results_are_not_parsed_in_the_parent(stock, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    programs, _, serial = stock[None]
    parses = _count_calls(monkeypatch, parser_mod, "parse")
    pooled = run_suite(SCALE, benchmarks=programs,
                       executor=LocalExecutor(2))
    assert len(parses) == 0
    assert _as_json(suite_to_dict(pooled)) == _as_json(suite_to_dict(serial))


def _compile_payloads(stock):
    for _, _, runs in stock.values():
        for run in runs.values():
            for cell in run.results.values():
                yield cell.to_dict()["compile_result"]


def test_lazy_compile_result_serializes_like_the_eager_one(stock,
                                                           monkeypatch):
    payloads = list(_compile_payloads(stock))
    assert len(payloads) == len(SEEDS) * 4 * len(schemes.columns())
    for d in payloads:
        expected = _as_json(d)
        parses = _count_calls(monkeypatch, parser_mod, "parse")
        unread = CompileResult.from_dict(d)
        assert _as_json(unread.to_dict()) == expected
        out = unread.to_dict()
        out["program"]["text"] = ""
        out["program"]["data_image"].clear()
        assert _as_json(unread.to_dict()) == expected
        assert _as_json(pickle.loads(pickle.dumps(unread)).to_dict()) \
            == expected
        assert len(parses) == 0
        assert _as_json(dataclasses.replace(unread).to_dict()) == expected

        read = CompileResult.from_dict(d)
        assert str(read.program) == str(Program.from_dict(d["program"]))
        assert _as_json(read.to_dict()) == expected
        read.program.name = "renamed"
        assert read.to_dict()["program"]["name"] == "renamed"
        monkeypatch.undo()


def test_grid_keys_equal_cell_key():
    """All 40 stock program x scheme cells (two seeds) key exactly as
    ``cell_key`` and ``spec_key`` do, and as the direct digest does."""
    checked = 0
    for seed in SEEDS:
        programs = benchmark_programs(SCALE, seed=seed)
        grid = cell_grid(programs, DEFAULT_HEURISTICS, None, MAX_STEPS)
        assert [(n, s) for n, s, _, _ in grid] == [
            (n, s.name) for n in programs for s in schemes.columns()]
        for name, scheme, spec, key in grid:
            prog, config = programs[name], spec.resolve_config()
            assert key == cell_key(prog, scheme, DEFAULT_HEURISTICS,
                                   config, MAX_STEPS)
            assert key == spec_key(spec)
            assert key == digest({
                "schema": SCHEMA_VERSION,
                "program": program_fingerprint(prog),
                "scheme": scheme, "heur": DEFAULT_HEURISTICS,
                "config": config, "max_steps": MAX_STEPS})
            checked += 1
        assert [k for _, _, k, _, _ in suite_cells(
            programs, DEFAULT_HEURISTICS, None, MAX_STEPS)] \
            == [k for _, _, _, k in grid]
        proposed = {n: k for n, s, _, k in grid if s == TUNE_SCHEME}
        assert {n: k for n, k, _ in candidate_cells(
            DEFAULT_HEURISTICS, {}, programs, MAX_STEPS)} == proposed
    assert checked == 40


def test_unprintable_program_is_recorded_not_raised(monkeypatch):
    programs = benchmark_programs(0.01)

    def boom():
        raise RuntimeError("cannot print")

    monkeypatch.setattr(programs["compress"], "to_dict", boom)
    broken = {}
    grid = cell_grid(programs, DEFAULT_HEURISTICS, None, MAX_STEPS,
                     broken=broken)
    assert list(broken) == ["compress"]
    assert {name for name, _, _, _ in grid} == set(programs) - {"compress"}
    with pytest.raises(RuntimeError, match="cannot print"):
        cell_grid(programs, DEFAULT_HEURISTICS, None, MAX_STEPS)

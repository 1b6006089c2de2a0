"""to_dict/from_dict round-trips for every artifact the engine caches."""

import json

import pytest

from repro.core.pipeline import CompileResult, compile_proposed
from repro.api import Session
from repro.eval.runner import (
    BenchmarkRun, SchemeResult, suite_from_dict, suite_to_dict,
)
from repro.sim import FunctionalSim, TimingSim, r10k_config
from repro.workloads import benchmark_programs


@pytest.fixture(scope="module")
def run():
    """One real benchmark run to serialize (module-scoped: expensive)."""
    prog = benchmark_programs(0.01)["compress"]
    return Session(max_steps=2_000_000).run_suite(
        benchmarks={"compress": prog})["compress"]


def _json_round_trip(d):
    return json.loads(json.dumps(d))


def test_simstats_round_trip():
    prog = benchmark_programs(0.01)["xlisp"]
    fsim = FunctionalSim(prog, max_steps=2_000_000, record_outcomes=False)
    stats = TimingSim(r10k_config("twobit")).run(fsim.trace())
    d = _json_round_trip(stats.to_dict())
    restored = type(stats).from_dict(d)
    assert restored.cycles == stats.cycles
    assert restored.ipc == stats.ipc
    assert restored.predictor.accuracy == stats.predictor.accuracy
    assert restored.to_dict() == stats.to_dict()


def test_execstats_round_trip():
    prog = benchmark_programs(0.01)["xlisp"]
    fsim = FunctionalSim(prog, max_steps=2_000_000)
    exec_stats = fsim.run()
    d = _json_round_trip(exec_stats.to_dict())
    restored = type(exec_stats).from_dict(d)
    assert restored.steps == exec_stats.steps
    assert restored.branch_outcomes == exec_stats.branch_outcomes
    assert restored.to_dict() == exec_stats.to_dict()


def test_compile_result_round_trip():
    prog = benchmark_programs(0.01)["compress"]
    result = compile_proposed(prog, max_steps=2_000_000)
    d = _json_round_trip(result.to_dict())
    restored = CompileResult.from_dict(d)
    assert restored.profile is None  # documented: profiles don't travel
    assert restored.splits_applied == result.splits_applied
    assert restored.fallback == result.fallback
    assert len(restored.program) == len(result.program)
    assert restored.to_dict() == result.to_dict()


def test_scheme_result_round_trip(run):
    for cell in run.results.values():
        restored = SchemeResult.from_dict(_json_round_trip(cell.to_dict()))
        assert restored.ok == cell.ok
        assert restored.to_dict() == cell.to_dict()


def test_benchmark_run_round_trip(run):
    restored = BenchmarkRun.from_dict(_json_round_trip(run.to_dict()))
    assert restored.ok == run.ok
    assert restored.improvement == pytest.approx(run.improvement)
    assert restored.to_dict() == run.to_dict()


def test_failed_cell_round_trip():
    cell = SchemeResult("b", "2bitBP", failure="RuntimeError: boom",
                        failure_detail="trace...")
    restored = SchemeResult.from_dict(_json_round_trip(cell.to_dict()))
    assert not restored.ok
    assert restored.failure == cell.failure
    assert restored.failure_detail == cell.failure_detail


def test_failed_run_improvement_is_null(run):
    broken = BenchmarkRun(name="b", results={
        "2bitBP": SchemeResult("b", "2bitBP", failure="X"),
        "Proposed": run.results["Proposed"],
        "PerfectBP": run.results["PerfectBP"],
    })
    d = broken.to_dict()
    assert d["improvement"] is None  # NaN must not leak into JSON
    json.dumps(d)  # and the whole record must be serializable


def test_suite_round_trip(run):
    suite = {"compress": run}
    restored = suite_from_dict(_json_round_trip(suite_to_dict(suite)))
    assert suite_to_dict(restored) == suite_to_dict(suite)


def test_tables_render_from_restored_suite(run):
    from repro.eval import format_table4

    suite = {"compress": run}
    restored = suite_from_dict(_json_round_trip(suite_to_dict(suite)))
    assert format_table4(restored) == format_table4(suite)

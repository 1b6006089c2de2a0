"""Suite isolation: failing cells become FAIL table entries, not crashes."""

import math

import pytest

from repro.core import schemes as schemes_mod
from repro.engine import CellSpec, execute_cell, run_suite
from repro.eval import (
    format_improvements, format_table1, format_table3,
    format_table4, render_report, suite_failures,
)
from repro.eval.paper_data import shape_verdicts
from repro.isa import parse

TINY = """.text
main:
    li   r1, 0
    li   r2, 5
    li   r10, 0x50000
loop:
    addi r1, r1, 1
    bne  r1, r2, loop
    sw   r1, 0(r10)
    halt
"""


def _bench():
    return {"tiny": parse(TINY, name="tiny")}


def _boom(*args, **kwargs):
    raise RuntimeError("synthetic mid-pass crash")


def test_proposed_cell_failure_is_contained(monkeypatch):
    monkeypatch.setattr(schemes_mod, "compile_proposed", _boom)
    runs = run_suite(benchmarks=_bench())
    run = runs["tiny"]
    assert run["2bitBP"].ok and run["PerfectBP"].ok
    assert not run["Proposed"].ok
    assert "RuntimeError" in run["Proposed"].failure
    assert run["Proposed"].failure_detail  # traceback tail kept
    assert math.isnan(run.improvement)
    # safe-speculative and melded share the proposed compiler, so they
    # fail too.
    assert [c.scheme for c in suite_failures(runs)] \
        == ["Proposed", "safe-speculative", "melded"]


def test_tables_render_fail_cells(monkeypatch):
    monkeypatch.setattr(schemes_mod, "compile_proposed", _boom)
    runs = run_suite(benchmarks=_bench())
    for text in (format_table3(runs), format_table4(runs),
                 format_improvements(runs)):
        assert "FAIL(" in text
    # Table 1 only needs the 2bitBP cell, which is fine here.
    assert "FAIL(" not in format_table1(runs)
    # The markdown report and paper comparison must also survive.
    assert "FAIL(" in render_report(runs)
    assert shape_verdicts(runs) == []


def test_strict_mode_fails_fast(monkeypatch):
    monkeypatch.setattr(schemes_mod, "compile_proposed", _boom)
    with pytest.raises(RuntimeError, match="synthetic mid-pass crash"):
        run_suite(benchmarks=_bench(), strict=True)


def test_cell_retry_once_absorbs_transient_failure(monkeypatch):
    calls = {"n": 0}
    real = schemes_mod.compile_baseline

    def flaky(prog):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("transient")
        return real(prog)

    monkeypatch.setattr(schemes_mod, "compile_baseline", flaky)
    prog = _bench()["tiny"]
    result = execute_cell(CellSpec(
        benchmark="tiny", scheme="2bitBP", program=prog.to_dict()),
        program=prog)
    assert result.ok
    assert calls["n"] == 2


def test_benchmark_construction_failure_fails_all_cells(monkeypatch):
    bench = _bench()
    monkeypatch.setattr(bench["tiny"], "to_dict", _boom)
    runs = run_suite(benchmarks=bench)
    assert {c.scheme for c in runs["tiny"].failures} == \
        {s.name for s in schemes_mod.columns()}
    assert all("RuntimeError" in c.failure for c in runs["tiny"].failures)


def test_clean_suite_has_no_failures():
    runs = run_suite(benchmarks=_bench())
    assert suite_failures(runs) == []
    assert runs["tiny"].ok
    assert runs["tiny"].improvement > 0

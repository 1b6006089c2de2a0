"""Evaluation harness: scheme runner and table generation.

Runs the suite at a reduced scale once (module-scoped fixture) and checks
both the plumbing and the paper's qualitative claims on the output.
"""

import pytest

from repro.api import Session
from repro.core import schemes
from repro.engine import run_suite
from repro.eval import (
    format_improvements, format_table1, format_table2, format_table3,
    format_table4, table1, table2, table3, table4,
)
from tests.conftest import biased_loop_program

COLUMNS = [s.name for s in schemes.columns()]


@pytest.fixture(scope="module")
def runs():
    return run_suite(scale=0.25)


def test_all_schemes_present(runs):
    for name, run in runs.items():
        assert set(run.results) == set(COLUMNS)


def test_all_benchmarks_present(runs):
    assert set(runs) == {"compress", "espresso", "xlisp", "grep"}


def test_table1_columns(runs):
    rows = table1(runs)
    assert len(rows) == 4
    for row in rows:
        assert row["dynamic_instructions"] > 1000
        assert 5.0 < row["branch_pct"] < 45.0
        assert 50.0 < row["predicted_pct"] <= 100.0


def test_table2_matches_paper():
    rows = {r["instruction"]: r["latency"] for r in table2()}
    assert rows == {"alu": 1, "ld/st": 2, "sft": 1, "fp add": 3,
                    "fp mul": 3, "fp div": 3, "cache miss penalty": 6}


def test_table3_shape(runs):
    """Paper Table 3's qualitative shape: BR-buffer occupancy is (much)
    higher under better prediction — 2bitBP <= Proposed <= PerfectBP,
    summed across benchmarks."""
    rows = table3(runs)
    totals = {s: 0.0 for s in COLUMNS}
    for row in rows:
        for s in COLUMNS:
            totals[s] += row[s]["BR"]
    assert totals["2bitBP"] <= totals["Proposed"] + 1e-9
    assert totals["Proposed"] <= totals["PerfectBP"] + 1e-9


def test_table4_ipc_ordering(runs):
    """Paper Table 4's headline: IPC ordering 2bitBP < Proposed <= Perfect
    per benchmark (Proposed may tie the baseline on a benchmark where no
    transform fires, but must never lose)."""
    for name, run in runs.items():
        ipc = {s: run[s].stats.ipc for s in COLUMNS}
        assert ipc["Proposed"] >= ipc["2bitBP"] * 0.99, name
        assert ipc["PerfectBP"] >= ipc["Proposed"] * 0.95, name


def test_improvement_band(runs):
    """At least one benchmark lands in the paper's 0.3-0.6-fold band and
    the geometric mean shows a real improvement."""
    ratios = [run.improvement for run in runs.values()]
    assert any(r >= 1.3 for r in ratios)
    geomean = 1.0
    for r in ratios:
        geomean *= r
    geomean **= 1.0 / len(ratios)
    assert geomean > 1.05


def test_formatters_render(runs):
    for text in (format_table1(runs), format_table2(), format_table3(runs),
                 format_table4(runs), format_improvements(runs)):
        assert isinstance(text, str) and len(text.splitlines()) >= 3


def test_run_benchmark_single():
    prog = biased_loop_program(iterations=200, period=8)
    run = Session().run_suite(benchmarks={"synth": prog})["synth"]
    assert run.name == "synth"
    assert run["2bitBP"].stats.cycles > 0
    assert run.improvement > 0


def test_config_overrides():
    prog = biased_loop_program(iterations=200, period=8)
    session = Session()
    small = session.run_suite(benchmarks={"synth": prog},
                              config_overrides={"bht_entries": 4})["synth"]
    big = session.run_suite(benchmarks={"synth": prog})["synth"]
    # Tiny BHT can only hurt (or tie) the 2-bit baseline.
    assert small["2bitBP"].stats.ipc <= big["2bitBP"].stats.ipc + 1e-9

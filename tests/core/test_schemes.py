"""The scheme table: each name is one compile, and a new column is one row.

Adding a labelled column to :data:`repro.core.schemes.SCHEMES` must be
the only edit a new table scheme needs: the suite grid, Tables 3/4, the
improvement summary and ``repro run --scheme`` all read the table when
they run.
"""

from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.core import schemes
from repro.core.heuristics import DEFAULT_HEURISTICS
from repro.core.schemes import Scheme, proposed
from repro.engine import run_suite
from repro.eval import format_improvements, format_table3, format_table4
from repro.workloads import benchmark_programs

#: Proposed without branch-likely conversion, as a sixth column.
NO_LIKELY = Scheme("no-likely", proposed(enable_likely=False), "twobit",
                   "NoLikely")


def test_each_name_denotes_one_compile():
    names = [s.name for s in schemes.SCHEMES]
    assert len(names) == len(set(names))
    assert [s.name for s in schemes.columns()] == [
        "2bitBP", "Proposed", "PerfectBP", "safe-speculative", "melded"]
    assert [s.name for s in schemes.fuzz_plan()] == [
        "baseline", "speculative", "guarded", "combined",
        "speculative-fenced", "guarded-melded"]
    assert list(schemes.compile_names()) == [
        "baseline", "proposed", "safe-speculative", "melded"]
    with pytest.raises(ValueError, match="unknown scheme"):
        schemes.get("no-such-scheme")


def test_overrides_apply_to_the_callers_heuristics():
    heur = replace(DEFAULT_HEURISTICS, speculation_bias=0.8)
    assert schemes.get("2bitBP").heuristics(heur) is None
    assert schemes.get("Proposed").heuristics(heur) == heur
    safe = schemes.get("safe-speculative").heuristics(heur)
    assert safe == replace(heur, spectre_safe=True)
    fenced = schemes.get("speculative-fenced").heuristics(heur)
    assert fenced == replace(heur, enable_ifconvert=False, spectre_safe=True)


def test_a_new_column_is_one_row(monkeypatch, capsys):
    monkeypatch.setattr(schemes, "SCHEMES", schemes.SCHEMES + (NO_LIKELY,))
    prog = benchmark_programs(0.01)["grep"]
    runs = run_suite(benchmarks={"grep": prog}, max_steps=2_000_000)
    run = runs["grep"]
    assert list(run.results) == [s.name for s in schemes.columns()]
    assert run["no-likely"].ok
    assert run["Proposed"].compile_result.likely_report is not None
    assert run["no-likely"].compile_result.likely_report is None

    for text in (format_table3(runs), format_table4(runs)):
        assert "no-likely" in text.splitlines()[1]
    improvements = format_improvements(runs).splitlines()
    assert improvements[1].split()[1:] == [
        "Proposed", "Perfect", "Safe", "Melded", "NoLikely"]
    assert len(improvements[2].split()) == 6

    assert main(["run", "grep", "--scale", "0.01",
                 "--scheme", "no-likely"]) == 0
    assert "IPC" in capsys.readouterr().out

"""The local executor: order, parity with serial, worker containment."""

import json
import os

import pytest

from repro.core import schemes
from repro.engine import CELLS, CellSpec, LocalExecutor
from repro.engine import cells as cells_mod
from repro.engine.pool import pool_workers
from repro.workloads import benchmark_programs


@pytest.fixture(scope="module")
def programs():
    """Two small benchmarks (module-scoped: parsing is not free)."""
    progs = benchmark_programs(0.01)
    return {name: progs[name] for name in ("compress", "xlisp")}


def _specs(programs, max_steps=2_000_000):
    specs = []
    for name, prog in programs.items():
        payload = prog.to_dict()
        for s in schemes.columns():
            specs.append(CellSpec(benchmark=name, scheme=s.name,
                                  program=payload, max_steps=max_steps))
    return specs


def _run(specs, jobs=1, programs=None, kind=CELLS):
    """The local executor over *specs* (keys are unused locally)."""
    return LocalExecutor(jobs).run(
        kind, [(str(i), spec) for i, spec in enumerate(specs)], programs)


def _payloads(cells):
    return [cell.to_dict() for cell in cells]


def test_serial_results_in_input_order(programs):
    specs = _specs(programs)
    payloads = _payloads(_run(specs, programs=programs))
    assert [(p["benchmark"], p["scheme"]) for p in payloads] == \
        [(s.benchmark, s.scheme) for s in specs]
    assert all(p["failure"] is None for p in payloads)


def test_parallel_byte_identical_to_serial(programs):
    specs = _specs(programs)
    serial = _payloads(_run(specs, programs=programs))
    parallel = _payloads(_run(specs, jobs=2))
    assert json.dumps(serial, sort_keys=True) == \
        json.dumps(parallel, sort_keys=True)


def test_pool_workers_add_no_spans_to_the_parent_trace(programs, tmp_path,
                                                       monkeypatch):
    """A forked worker starts as a copy of the thread that traces; it
    must not write into that trace (a line-buffered sink shows every
    record a worker would write)."""
    from repro.obs import read_trace, span, tracing

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    path = tmp_path / "t.jsonl"
    with open(path, "w", buffering=1) as sink, tracing(sink):
        with span("parent"):
            _run(_specs(programs), jobs=2)
    assert [r["name"] for r in read_trace(path)] == ["parent"]


def test_fail_cells_propagate_from_workers(programs):
    # A 10-step budget cannot run any benchmark: every cell must come
    # back as a contained FAIL payload, not an exception.
    specs = _specs(programs, max_steps=10)
    payloads = _payloads(_run(specs, jobs=2))
    assert len(payloads) == len(specs)
    for p in payloads:
        assert p["failure"] is not None
        assert p["stats"] is None
    # The functional step budget is the failure the worker actually hit.
    assert any("StepBudgetExceeded" in p["failure"] for p in payloads)


def test_strict_spec_raises_in_serial(programs):
    spec = _specs({"compress": programs["compress"]}, max_steps=10)[0]
    strict_spec = CellSpec(
        benchmark=spec.benchmark, scheme=spec.scheme, program=spec.program,
        max_steps=10, strict=True)
    with pytest.raises(Exception):
        _run([strict_spec])


def _lethal_in_workers(monkeypatch, module, name):
    """Make ``module.name`` kill any forked worker process that calls it;
    returns the list of calls the parent made."""
    parent = os.getpid()
    real = getattr(module, name)
    calls = []

    def lethal(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, lethal)
    return calls


def test_dead_workers_cells_rerun_in_the_parent(programs, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    specs = _specs(programs)
    serial = _payloads(_run(specs))
    calls = _lethal_in_workers(monkeypatch, cells_mod, "execute_cell")
    pooled = _payloads(_run(specs, jobs=2))
    assert len(calls) == len(specs)       # every cell re-ran here
    assert json.dumps(pooled, sort_keys=True) == \
        json.dumps(serial, sort_keys=True)


def test_dead_workers_fuzz_cells_rerun_in_the_parent(monkeypatch):
    from repro.qa import cells as qa_cells
    from repro.qa.strategies import LATTICE, campaign_plan

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    specs = [qa_cells.FuzzCellSpec(s.name, seed)
             for s, seed in campaign_plan(3, 0, LATTICE)]
    serial = _run(specs, kind=qa_cells.FUZZ)
    calls = _lethal_in_workers(monkeypatch, qa_cells, "execute_fuzz_cell")
    pooled = _run(specs, jobs=2, kind=qa_cells.FUZZ)
    assert len(calls) == len(specs)
    assert json.dumps(pooled, sort_keys=True) == \
        json.dumps(serial, sort_keys=True)


class TestExecutionMode:
    """The oversubscription guard behind every pool fan-out: the worker
    count is ``min(jobs, n_items, cpus)``, and 1 runs in-process."""

    def test_jobs_one_is_plain_serial(self):
        assert pool_workers(jobs=1, n_items=8) == 1

    def test_single_item_is_plain_serial(self):
        assert pool_workers(jobs=4, n_items=1) == 1

    def test_oversubscribed_host_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert pool_workers(jobs=4, n_items=8) == 1

    def test_workers_capped_by_cpus_and_items(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert pool_workers(jobs=16, n_items=3) == 3
        assert pool_workers(jobs=16, n_items=8) == 4
        assert pool_workers(jobs=2, n_items=8) == 2

"""Per-cell timeouts: armed on every path, never a wrong or cached result.

A timed cell either equals its untimed result or is ``FAIL(CellTimeout)``
— a watchdog firing inside profiling, a pass or the fast simulator's
code generation must not degrade into a baseline fallback or a
reference rerun that reports ok — and nothing a timed run leaves behind
(artifact cache, decode/codegen caches) changes a later untimed run.
"""

import json
import time

import pytest

from repro.api import Session
from repro.engine import (ArtifactCache, CellTimeout, LocalExecutor,
                          run_suite)
from repro.engine import cells as cells_mod
from repro.fastsim.backend import clear_fallback_trail, fallback_trail
from repro.isa import parse
from repro.workloads import benchmark_programs

SCALE = 0.02

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


def _results(runs):
    return {scheme: json.dumps(cell.to_dict(), sort_keys=True)
            for scheme, cell in runs["compress"].results.items()}


def _compress():
    return {"compress": benchmark_programs(SCALE)["compress"]}


def test_cell_timeout_escapes_exception_handlers():
    assert not issubclass(CellTimeout, Exception)


@pytest.mark.parametrize("backend", ["reference", "fast"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_timed_cells_are_exact_or_timed_out(tmp_path, backend, jobs):
    clean = _results(run_suite(benchmarks=_compress(), backend=backend))
    fired = 0
    for i, timeout in enumerate((0.002, 0.01, 0.05)):
        cache = ArtifactCache(tmp_path / str(i))
        clear_fallback_trail()
        timed = run_suite(benchmarks=_compress(), backend=backend,
                          executor=LocalExecutor(jobs), timeout=timeout,
                          cache=cache)
        assert fallback_trail() == ()
        for scheme, cell in timed["compress"].results.items():
            if cell.ok:
                assert json.dumps(cell.to_dict(), sort_keys=True) \
                    == clean[scheme], (timeout, scheme)
            else:
                assert cell.failure.startswith("CellTimeout"), cell.failure
                fired += 1
        warm = run_suite(benchmarks=_compress(), backend=backend,
                         executor=LocalExecutor(jobs), cache=cache)
        assert _results(warm) == clean, timeout
    assert fired  # the watchdog did fire on this path


def test_session_timeout_bounds_cells_at_jobs_1(monkeypatch):
    """``Session(timeout=..., jobs=1)`` arms the watchdog: a simulation
    that would spin for seconds fails its cell in about the budget."""
    real = cells_mod.counted_simulate

    def spinning(*args, **kwargs):
        deadline = time.perf_counter() + 3.0
        while time.perf_counter() < deadline:
            pass
        return real(*args, **kwargs)

    monkeypatch.setattr(cells_mod, "counted_simulate", spinning)
    prog = parse(TINY, name="tiny")
    with Session(timeout=0.05, jobs=1) as s:
        start = time.perf_counter()
        runs = s.run_suite(benchmarks={"tiny": prog})
        run = s.run_benchmark("tiny", prog)
        elapsed = time.perf_counter() - start
    for cells in (runs["tiny"].results, run.results):
        assert [c.failure for c in cells.values()] \
            == ["CellTimeout"] * len(cells)
    assert elapsed < 3.0

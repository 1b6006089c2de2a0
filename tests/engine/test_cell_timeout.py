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


@pytest.mark.parametrize("simulator", ["reference", "fast"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_timed_cells_are_exact_or_timed_out(tmp_path, simulator, jobs):
    """On the fast path, and on the reference cycle loop that an enabled
    metrics registry sends every simulation to (its pipeline observer
    hooks that loop)."""
    observed = Session(metrics=simulator == "reference")
    with observed:
        clean = _results(run_suite(benchmarks=_compress()))
        fired = 0
        for i, timeout in enumerate((0.002, 0.01, 0.05)):
            cache = ArtifactCache(tmp_path / str(i))
            clear_fallback_trail()
            timed = run_suite(benchmarks=_compress(),
                              executor=LocalExecutor(jobs), timeout=timeout,
                              cache=cache)
            stages = {record.stage for record in fallback_trail()}
            assert stages <= ({"observer"} if observed.metrics else set())
            for scheme, cell in timed["compress"].results.items():
                if cell.ok:
                    assert json.dumps(cell.to_dict(), sort_keys=True) \
                        == clean[scheme], (timeout, scheme)
                else:
                    assert cell.failure.startswith("CellTimeout"), \
                        cell.failure
                    fired += 1
            warm = run_suite(benchmarks=_compress(),
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


WATCHDOG_IMPORTS = r"""
import json
import sys

sys.path.insert(0, {src_path!r})
from repro.core import schemes
from repro.engine import cells
from repro.workloads import benchmark_programs

imported = []


class Recording(cells._watchdog):
    def __enter__(self):
        self.before = set(sys.modules)
        return super().__enter__()

    def __exit__(self, *exc_info):
        imported.extend(m for m in set(sys.modules) - self.before
                        if m.startswith("repro"))
        return super().__exit__(*exc_info)


cells._watchdog = Recording
payload = benchmark_programs(0.02)["grep"].to_dict()
for column in schemes.columns():
    result = cells.execute_cell(cells.CellSpec(
        benchmark="grep", scheme=column.name, program=payload,
        timeout=600.0, strict=True))
    assert result.ok, column.name
print(json.dumps(sorted(set(imported))))
"""


def test_no_module_is_first_imported_under_a_watchdog():
    """A timeout that lands inside a first import leaves that module's
    import lock held, and the next thread to import it (another serve
    worker) blocks forever.  So a fresh process must have imported every
    module a cell needs before the watchdog is armed."""
    import subprocess
    import sys

    import repro

    script = WATCHDOG_IMPORTS.format(
        src_path=str(next(iter(repro.__path__)) + "/.."))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=300)
    assert json.loads(out.stdout) == []

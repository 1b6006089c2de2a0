"""The fast backend's speed-up over the reference simulators (CI gate).

Over the four stock programs at scale 0.1 with the 2-bit predictor, the
engine's result cache cold and the decode and codegen caches warmed once
per program before any clock starts:

* each program's ``(SimStats, ExecStats)`` payloads are identical on
  both backends;
* a functional run with outcome recording on (the profiling run),
  min-of-15 per program, is at least 10x faster in total on the fast
  backend;
* a full cell (functional + timing), min-of-3 per program, is at least
  2.5x faster in total.

Each repeat times one reference call and then one fast call, so a busy
spell of the host slows both sides of a ratio rather than one.  Each
speed-up test prints its totals.  Wall-clock ratios want a quiet
host, so this file runs in the CI ``fastsim`` job, not the tier-1 suite:

    python -m pytest -q benchmarks/bench_fastsim.py
"""

import time

import pytest

from repro.fastsim import FastFunctionalSim
from repro.fastsim.backend import simulate as fast_simulate
from repro.sim import FunctionalSim, TimingSim, r10k_config
from repro.workloads import benchmark_programs

SCALE = 0.1
MAX_STEPS = 50_000_000


def _best_interleaved(reference, fast, repeats: int) -> list[float]:
    """Minimum wall-clock seconds of *reference* and of *fast* over
    *repeats* rounds, each round timing one call of each in turn."""
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for side, fn in enumerate((reference, fast)):
            t0 = time.perf_counter()
            fn()
            best[side] = min(best[side], time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def measured():
    """Reference and fast totals per measurement, and the programs whose
    payloads differ between the backends."""
    config = r10k_config("twobit")
    totals = {"functional": [0.0, 0.0], "full cell": [0.0, 0.0]}
    diverged = []
    for name, prog in benchmark_programs(SCALE).items():
        FastFunctionalSim(prog, max_steps=MAX_STEPS).run()
        fast_pair = fast_simulate(prog, config, max_steps=MAX_STEPS)

        def reference_cell():
            fsim = FunctionalSim(prog, max_steps=MAX_STEPS,
                                 record_outcomes=False)
            return TimingSim(config).run(fsim.trace()), fsim.stats

        if [s.to_dict() for s in reference_cell()] \
                != [s.to_dict() for s in fast_pair]:
            diverged.append(name)

        ref, fast = _best_interleaved(
            lambda: FunctionalSim(prog, max_steps=MAX_STEPS,
                                  record_outcomes=True).run(),
            lambda: FastFunctionalSim(prog, max_steps=MAX_STEPS,
                                      record_outcomes=True).run(), 15)
        totals["functional"][0] += ref
        totals["functional"][1] += fast
        ref, fast = _best_interleaved(reference_cell, lambda: fast_simulate(
            prog, config, max_steps=MAX_STEPS), 3)
        totals["full cell"][0] += ref
        totals["full cell"][1] += fast
    return totals, diverged


def _speedup(measured, name: str, capsys) -> float:
    totals, _ = measured
    reference, fast = totals[name]
    with capsys.disabled():
        print(f"\n{name}: reference {reference:.4f} s, fast {fast:.4f} s, "
              f"{reference / fast:.2f}x")
    return reference / fast


def test_payloads_identical(measured):
    _, diverged = measured
    assert diverged == []


def test_functional_at_least_10x(measured, capsys):
    assert _speedup(measured, "functional", capsys) >= 10.0


def test_full_cell_at_least_2_5x(measured, capsys):
    assert _speedup(measured, "full cell", capsys) >= 2.5

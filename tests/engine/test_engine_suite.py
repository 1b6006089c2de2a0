"""Engine suite runner: the PR's acceptance criteria as tests."""

import json

import pytest

from repro.core import schemes
from repro.engine import ArtifactCache, COUNTERS, LocalExecutor, run_suite
from repro.eval.runner import suite_to_dict
from repro.workloads import benchmark_programs

SCALE = 0.01
MAX_STEPS = 2_000_000


@pytest.fixture(scope="module")
def programs():
    """The full (tiny-scale) benchmark set, parsed once."""
    return benchmark_programs(SCALE)


def test_warm_cache_does_zero_compile_or_simulate(tmp_path, programs):
    """Acceptance: a warm-cache suite run must not compile or simulate."""
    cache = ArtifactCache(tmp_path)
    run_suite(benchmarks=programs, max_steps=MAX_STEPS, cache=cache)
    COUNTERS.reset()
    cache.counters.reset()
    runs = run_suite(benchmarks=programs, max_steps=MAX_STEPS, cache=cache)
    assert COUNTERS.compiles == 0
    assert COUNTERS.simulates == 0
    assert cache.counters.hits == len(programs) * len(schemes.columns())
    assert cache.counters.misses == 0
    assert all(run.ok for run in runs.values())


def test_warm_results_identical_to_cold(tmp_path, programs):
    cache = ArtifactCache(tmp_path)
    cold = run_suite(benchmarks=programs, max_steps=MAX_STEPS, cache=cache)
    warm = run_suite(benchmarks=programs, max_steps=MAX_STEPS, cache=cache)
    assert json.dumps(suite_to_dict(cold), sort_keys=True) == \
        json.dumps(suite_to_dict(warm), sort_keys=True)


def test_parallel_identical_to_serial(programs):
    """Acceptance: --jobs 2 must reproduce the serial results exactly."""
    serial = run_suite(benchmarks=programs, max_steps=MAX_STEPS)
    parallel = run_suite(benchmarks=programs, max_steps=MAX_STEPS,
                         executor=LocalExecutor(2))
    assert json.dumps(suite_to_dict(serial), sort_keys=True) == \
        json.dumps(suite_to_dict(parallel), sort_keys=True)


def test_corrupted_cache_entry_recomputes(tmp_path, programs):
    one = {"compress": programs["compress"]}
    cache = ArtifactCache(tmp_path)
    cold = run_suite(benchmarks=one, max_steps=MAX_STEPS, cache=cache)
    for entry in list(cache._entry_files()):
        entry.write_text("garbage{")
    warm = run_suite(benchmarks=one, max_steps=MAX_STEPS, cache=cache)
    assert cache.counters.corrupt >= 1
    assert warm["compress"].ok
    assert json.dumps(suite_to_dict(cold), sort_keys=True) == \
        json.dumps(suite_to_dict(warm), sort_keys=True)


def test_failed_cells_are_not_cached(tmp_path, programs):
    cache = ArtifactCache(tmp_path)
    runs = run_suite(benchmarks={"xlisp": programs["xlisp"]}, max_steps=10,
                     cache=cache)
    assert not runs["xlisp"].ok
    assert cache.stats()["entries"] == 0


def test_parallel_fail_cells_reach_the_tables(programs):
    runs = run_suite(benchmarks={"xlisp": programs["xlisp"]}, max_steps=10,
                     executor=LocalExecutor(2))
    run = runs["xlisp"]
    assert not run.ok
    assert all(cell.failure for cell in run.results.values())


def test_strict_propagates_from_parallel_workers(programs):
    with pytest.raises(RuntimeError):
        run_suite(benchmarks={"xlisp": programs["xlisp"]}, max_steps=10,
                  executor=LocalExecutor(2), strict=True)


def test_seed_changes_cache_keys(tmp_path):
    cache = ArtifactCache(tmp_path)
    run_suite(scale=SCALE, max_steps=MAX_STEPS, cache=cache, seed=1)
    first = cache.stats()["entries"]
    run_suite(scale=SCALE, max_steps=MAX_STEPS, cache=cache, seed=2)
    assert cache.stats()["entries"] > first  # different inputs, new cells
    hits_before = cache.counters.hits
    run_suite(scale=SCALE, max_steps=MAX_STEPS, cache=cache, seed=1)
    assert cache.counters.hits > hits_before  # same seed hits again


def test_one_missing_cell_recomputes_only_that_cell(tmp_path, programs):
    """A warm benchmark with one cache entry gone runs that cell alone
    (one compile, one simulation) and matches the cold results."""
    from repro.core.heuristics import DEFAULT_HEURISTICS
    from repro.engine.keys import cell_key
    from repro.sim.config import r10k_config

    one = {"compress": programs["compress"]}
    cache = ArtifactCache(tmp_path)
    cold = run_suite(benchmarks=one, max_steps=MAX_STEPS, cache=cache)
    key = cell_key(programs["compress"], "Proposed", DEFAULT_HEURISTICS,
                   r10k_config("twobit"), MAX_STEPS)
    cache._path(key).unlink()
    COUNTERS.reset()
    warm = run_suite(benchmarks=one, max_steps=MAX_STEPS, cache=cache)
    assert (COUNTERS.compiles, COUNTERS.simulates) == (1, 1)
    assert json.dumps(suite_to_dict(cold), sort_keys=True) == \
        json.dumps(suite_to_dict(warm), sort_keys=True)


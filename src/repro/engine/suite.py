"""Cached suite execution: the one way a suite's cells run.

:func:`run_suite` runs the (benchmark, scheme) grid behind every table.
``Session.run_suite``/``run_benchmark``, the sweep driver, ``repro
submit`` and the ingest goldens all come through here, and every cell
runs through :func:`~repro.engine.cells.execute_cell` (retry-once
containment, bounded by the step budget), locally or on a serve
worker:

* **artifact caching** — each cell is keyed by a content digest of
  (program, scheme, heuristics, machine config, step budget, schema
  version); a hit deserializes the stored stats and decision trail
  without compiling or simulating anything;
* **misses only** — the grid goes through
  :func:`~repro.engine.pool.run_cached`, which sends the cells that
  missed to the executor: a :class:`~repro.engine.pool.LocalExecutor`
  (in-process at ``jobs=1``, with one
  :class:`~repro.engine.cells.BenchmarkMemo` per benchmark on the
  caller's built programs, and over worker processes above that) or a
  :class:`~repro.serve.client.ServeClient`.  A benchmark's cached hits
  are kept; they equal what a rerun would produce, because a cell's
  result never depends on which other cells of its benchmark ran with
  it.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from ..core.heuristics import DEFAULT_HEURISTICS, FeedbackHeuristics
from ..isa.program import Program
from ..obs.trace import span as obs_span
from ..workloads import benchmark_programs
from .cache import ArtifactCache
from .cells import CELLS, _short_reason, cell_grid
from .pool import LocalExecutor, run_cached

#: Accepted forms of the ``cache`` argument.
CacheLike = Union[None, bool, str, ArtifactCache]


def coerce_cache(cache: CacheLike) -> Optional[ArtifactCache]:
    """Normalize the ``cache`` argument: None/False off, True default dir,
    a path makes a store there, an :class:`ArtifactCache` passes through."""
    if cache is None or cache is False:
        return None
    if cache is True:
        return ArtifactCache()
    if isinstance(cache, ArtifactCache):
        return cache
    return ArtifactCache(cache)


def run_suite(scale: float = 1.0,
              heur: FeedbackHeuristics = DEFAULT_HEURISTICS,
              benchmarks: Optional[dict[str, Program]] = None,
              config_overrides: Optional[dict] = None,
              progress: Optional[Callable[[str], None]] = None,
              max_steps: int = 50_000_000,
              strict: bool = False,
              executor=None,
              cache: CacheLike = None,
              seed: Optional[int] = None):
    """Run the full suite through the cache and the cell executor.

    Returns ``{benchmark: BenchmarkRun}`` in benchmark order.  A
    benchmark whose cells cannot even be built (the program fails to
    serialize or key) is recorded as a run whose cells all failed,
    unless *strict*.  *executor* runs the cache misses (None = a
    :class:`~repro.engine.pool.LocalExecutor` at ``jobs=1``); *cache*
    enables the artifact store (see :func:`coerce_cache`); *seed*
    re-seeds the synthetic workload generators (identical inputs hash
    identically, so reruns hit the cache).
    """
    from ..core import schemes
    from ..eval.runner import BenchmarkRun, SchemeResult

    executor = executor if executor is not None else LocalExecutor()
    with obs_span("suite.run", scale=scale, executor=repr(executor),
                  cached=cache is not None):
        programs = benchmarks if benchmarks is not None \
            else benchmark_programs(scale, seed=seed)
        if progress:
            for name in programs:
                progress(name)
        broken: dict[str, BaseException] = {}
        grid = cell_grid(programs, heur, config_overrides, max_steps,
                         strict=strict, broken=None if strict else broken)
        results, _, _ = run_cached(
            CELLS, [(key, spec) for _, _, spec, key in grid], executor,
            coerce_cache(cache), programs)

    runs = {name: BenchmarkRun(name=name) for name in programs}
    for (name, scheme, _, _), cell in zip(grid, results):
        runs[name].results[scheme] = cell
    for name, exc in broken.items():
        runs[name].results = {
            s.name: SchemeResult(name, s.name, failure=_short_reason(exc))
            for s in schemes.columns()}
    return runs

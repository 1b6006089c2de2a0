"""Cached, parallel suite execution: the one way a suite's cells run.

:func:`run_suite` runs the (benchmark, scheme) grid behind every table.
``Session.run_suite``/``run_benchmark``, the sweep driver and the ingest
goldens all come through here, and every cell runs through
:func:`~repro.engine.cells.execute_cell` (retry-once containment, an
optional per-attempt timeout):

* **artifact caching** — each cell is keyed by a content digest of
  (program, scheme, heuristics, machine config, step budget, schema
  version); a hit deserializes the stored stats and decision trail
  without compiling or simulating anything;
* **misses only** — the cells that missed go to
  :func:`~repro.engine.pool.run_cells`: in-process at ``jobs=1``, with
  one :class:`~repro.engine.cells.BenchmarkMemo` per benchmark on the
  caller's built programs, and over worker processes when ``jobs > 1``.
  A benchmark's cached hits are kept; they equal what a rerun would
  produce, because a cell's result never depends on which other cells
  of its benchmark ran with it.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from ..core.heuristics import DEFAULT_HEURISTICS, FeedbackHeuristics
from ..isa.program import Program
from ..obs.trace import span as obs_span
from ..workloads import benchmark_programs
from .cache import ArtifactCache
from .cells import SCHEME_PLAN, CellSpec, _short_reason, overrides_as_items
from .keys import cell_key
from .pool import run_cells

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
              jobs: int = 1,
              cache: CacheLike = None,
              timeout: Optional[float] = None,
              seed: Optional[int] = None,
              backend: Optional[str] = None):
    """Run the full suite through the cache and the cell executor.

    Returns ``{benchmark: BenchmarkRun}`` in benchmark order.  A
    benchmark whose cells cannot even be built (the program fails to
    serialize or key) is recorded as a run whose cells all failed,
    unless *strict*.  *jobs* > 1 fans cache misses out over worker
    processes; *cache* enables the artifact store (see
    :func:`coerce_cache`); *timeout* bounds each cell attempt in
    seconds, at every *jobs* value; *seed* re-seeds the synthetic
    workload generators (identical inputs hash identically, so reruns
    hit the cache).  *backend* selects the execution backend (``"fast"``
    or ``"reference"``); None defers to the ``REPRO_BACKEND`` environment
    variable, then ``"fast"``.  Backends produce byte-identical payloads
    but key separately in the artifact cache.
    """
    from ..fastsim.backend import resolve_backend

    backend = resolve_backend(backend)
    with obs_span("suite.run", scale=scale, jobs=jobs,
                  cached=cache is not None, backend=backend):
        return _run_suite_inner(scale, heur, benchmarks, config_overrides,
                                progress, max_steps, strict, jobs, cache,
                                timeout, seed, backend)


def _run_suite_inner(scale, heur, benchmarks, config_overrides, progress,
                     max_steps, strict, jobs, cache, timeout, seed, backend):
    """Body of :func:`run_suite` (split out so the span wraps it whole)."""
    from ..eval.runner import BenchmarkRun, SchemeResult

    store = coerce_cache(cache)
    programs = benchmarks if benchmarks is not None \
        else benchmark_programs(scale, seed=seed)
    over_items = overrides_as_items(config_overrides)

    # (name, scheme) -> SchemeResult, from the cache or freshly computed
    cells: dict[tuple[str, str], object] = {}
    # cells to compute, with their cache keys for the write-back
    miss_specs: list[CellSpec] = []
    miss_keys: dict[tuple[str, str], str] = {}
    broken: dict[str, BaseException] = {}

    for name, prog in programs.items():
        if progress:
            progress(name)
        try:
            payload_d = prog.to_dict()
            for scheme, kind, predictor in SCHEME_PLAN:
                spec = CellSpec(
                    benchmark=name, scheme=scheme, kind=kind,
                    predictor=predictor, program=payload_d, heur=heur,
                    config_overrides=over_items, max_steps=max_steps,
                    timeout=timeout, strict=strict, backend=backend)
                if store is not None:
                    key = cell_key(prog, scheme, heur,
                                   spec.resolve_config(), max_steps,
                                   backend=backend)
                    cached = store.get(key)
                    if cached is not None:
                        cells[(name, scheme)] = \
                            SchemeResult.from_dict(cached)
                        continue
                    miss_keys[(name, scheme)] = key
                miss_specs.append(spec)
        except Exception as exc:  # noqa: BLE001 - keying/serialization crash
            if strict:
                raise
            broken[name] = exc
            miss_specs = [s for s in miss_specs if s.benchmark != name]

    fresh = run_cells(miss_specs, jobs=jobs, programs=programs)
    for spec, cell in zip(miss_specs, fresh):
        cells[(spec.benchmark, spec.scheme)] = cell
        key = miss_keys.get((spec.benchmark, spec.scheme))
        if key is not None and cell.ok:
            store.put(key, cell.to_dict())

    runs: dict[str, BenchmarkRun] = {}
    for name in programs:
        if name in broken:
            reason = _short_reason(broken[name])
            runs[name] = BenchmarkRun(name=name, results={
                scheme: SchemeResult(name, scheme, failure=reason)
                for scheme, _, _ in SCHEME_PLAN})
            continue
        runs[name] = BenchmarkRun(name=name, results={
            scheme: cells[(name, scheme)] for scheme, _, _ in SCHEME_PLAN})
    return runs

"""Cached, parallel three-scheme suite execution.

:func:`run_suite` is the engine behind ``repro.eval.runner.run_suite``:
the same (benchmark, scheme) grid, with two new capabilities layered on
top of the PR 1 containment semantics:

* **artifact caching** — each cell is keyed by a content digest of
  (program, scheme, heuristics, machine config, step budget, schema
  version); a hit deserializes the stored stats and decision trail
  without compiling or simulating anything;
* **parallel fan-out** — cache misses run through the process pool when
  ``jobs > 1``.

Compatibility contract: with ``jobs=1`` and no cache, execution routes
through ``repro.eval.runner.run_benchmark`` — looked up *at call time* on
the runner module — so fault-injection tests (and anyone else) can still
monkeypatch the serial path.  A benchmark with any cache miss recomputes
all of its cells through that path (profiles, compiles and simulations
are shared within a benchmark, so a lone miss costs nearly a full
benchmark anyway) and refreshes the cache.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from .._deprecation import resolve_impl
from ..core.heuristics import DEFAULT_HEURISTICS, FeedbackHeuristics
from ..isa.program import Program
from ..obs.trace import span as obs_span
from ..workloads import benchmark_programs
from .cache import ArtifactCache
from .cells import SCHEME_PLAN, CellSpec, overrides_as_items
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


def _all_fail_run(name: str, exc: BaseException):
    """A BenchmarkRun whose three cells all failed (construction crash)."""
    from ..eval.runner import BenchmarkRun, SchemeResult, _short_reason

    reason = _short_reason(exc)
    return BenchmarkRun(name=name, results={
        scheme: SchemeResult(name, scheme, failure=reason)
        for scheme, _, _ in SCHEME_PLAN})


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
    """Run the full suite through the cache and (optionally) the pool.

    Returns ``{benchmark: BenchmarkRun}`` in benchmark order, exactly like
    the serial runner.  *jobs* > 1 fans cache misses out over worker
    processes; *cache* enables the artifact store (see
    :func:`coerce_cache`); *timeout* bounds each parallel cell attempt in
    seconds; *seed* re-seeds the synthetic workload generators (identical
    inputs hash identically, so reruns hit the cache).  *backend* selects
    the execution backend (``"fast"`` or ``"reference"``); None defers to
    the ``REPRO_BACKEND`` environment variable, then ``"fast"``.
    Backends produce byte-identical payloads but key separately in the
    artifact cache.
    """
    from ..eval import runner as _runner  # late: avoids an import cycle,
    # and keeps run_benchmark/monkeypatches resolvable at call time.
    from ..fastsim.backend import resolve_backend

    backend = resolve_backend(backend)
    with obs_span("suite.run", scale=scale, jobs=jobs,
                  cached=cache is not None, backend=backend):
        return _run_suite_inner(scale, heur, benchmarks, config_overrides,
                                progress, max_steps, strict, jobs, cache,
                                timeout, seed, backend, _runner)


def _run_suite_inner(scale, heur, benchmarks, config_overrides, progress,
                     max_steps, strict, jobs, cache, timeout, seed, backend,
                     _runner):
    """Body of :func:`run_suite` (split out so the span wraps it whole)."""
    store = coerce_cache(cache)
    if benchmarks is not None:
        programs = benchmarks
    elif seed is not None:
        programs = benchmark_programs(scale, seed=seed)
    else:
        # Attribute lookup on the runner module, so tests that shrink the
        # suite by monkeypatching ``runner.benchmark_programs`` (which may
        # not accept ``seed``) keep working.
        programs = _runner.benchmark_programs(scale)
    overrides = config_overrides or {}
    over_items = overrides_as_items(overrides)

    runs: dict[str, object] = {}
    # (name, scheme) -> SchemeResult recovered from the artifact cache
    hits: dict[tuple[str, str], object] = {}
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
                key = None
                if store is not None:
                    key = cell_key(prog, scheme, heur,
                                   spec.resolve_config(), max_steps,
                                   backend=backend)
                    cached = store.get(key)
                    if cached is not None:
                        hits[(name, scheme)] = \
                            _runner.SchemeResult.from_dict(cached)
                        continue
                    miss_keys[(name, scheme)] = key
                miss_specs.append(spec)
        except Exception as exc:  # noqa: BLE001 - keying/serialization crash
            if strict:
                raise
            broken[name] = exc
            miss_specs = [s for s in miss_specs if s.benchmark != name]

    if jobs > 1:
        fresh = _parallel_misses(miss_specs, programs, jobs, strict)
    else:
        fresh = _serial_misses(_runner, miss_specs, programs, hits, heur,
                               config_overrides, max_steps, strict, backend)

    for name in programs:
        if name in broken:
            runs[name] = _all_fail_run(name, broken[name])
            continue
        results = {}
        for scheme, _, _ in SCHEME_PLAN:
            cell = fresh.get((name, scheme), hits.get((name, scheme)))
            if cell is None:  # pool returned nothing for it (cannot
                cell = _runner.SchemeResult(  # happen in practice)
                    name, scheme, failure="MissingResult")
            results[scheme] = cell
        runs[name] = _runner.BenchmarkRun(name=name, results=results)
        if store is not None:
            for scheme, _, _ in SCHEME_PLAN:
                cell = results[scheme]
                key = miss_keys.get((name, scheme))
                if key is not None and cell.ok:
                    store.put(key, cell.to_dict())
    return runs


def _serial_misses(_runner, miss_specs, programs, hits, heur,
                   config_overrides, max_steps, strict, backend):
    """Recompute missing cells via the runner's serial per-benchmark path.

    A benchmark with *any* miss is recomputed whole through
    ``run_benchmark`` (attribute lookup on the runner module, preserving
    monkeypatchability); its cached hits are superseded by the fresh
    results so one benchmark never mixes artifact generations.
    """
    fresh: dict[tuple[str, str], object] = {}
    names = []
    for spec in miss_specs:
        if spec.benchmark not in names:
            names.append(spec.benchmark)
    for name in names:
        # Attribute lookup keeps monkeypatched replacements (no shim
        # attribute) in play; resolve_impl skips the deprecation shim on
        # the real function so internal routing never warns.
        fn = resolve_impl(_runner.run_benchmark)
        try:
            run = fn(
                name, programs[name], heur=heur,
                config_overrides=config_overrides,
                max_steps=max_steps, strict=strict, backend=backend)
        except Exception as exc:  # noqa: BLE001 - construction failure
            if strict:
                raise
            run = _all_fail_run(name, exc)
        for scheme, _, _ in SCHEME_PLAN:
            fresh[(name, scheme)] = run.results[scheme]
            hits.pop((name, scheme), None)  # superseded by fresh result
    return fresh


def _parallel_misses(miss_specs, programs, jobs, strict):
    """Fan cache misses out over the pool; strict re-raises failures."""
    from ..eval.runner import SchemeResult

    payloads = run_cells(miss_specs, jobs=jobs, programs=programs)
    fresh: dict[tuple[str, str], object] = {}
    for spec, payload in zip(miss_specs, payloads):
        cell = SchemeResult.from_dict(payload)
        if strict and not cell.ok:
            raise RuntimeError(
                f"{cell.benchmark}/{cell.scheme} failed: {cell.failure}\n"
                f"{cell.failure_detail}")
        fresh[(spec.benchmark, spec.scheme)] = cell
    return fresh

"""The experiment front door: :class:`Session` + :class:`RunOptions`.

:class:`Session` is the one supported way to run an experiment
(``run_benchmark`` / ``run_suite`` / ``sweep`` / ``fuzz`` / ``tune`` /
``spectre``).  Every *execution* knob — worker count, artifact cache,
observability sinks, remote routing, step budget, fail-fast —
lives in one frozen :class:`RunOptions` value held once per session,
and every experiment method resolves its knobs through it with three
precedence levels::

    session default  <  per-call options=RunOptions(...)  <  explicit kwarg

Usage::

    from repro.api import RunOptions, Session

    opts = RunOptions(jobs=4, cache=True, trace="trace.jsonl")
    with Session(options=opts) as s:
        runs = s.run_suite(scale=0.3)
        campaign = s.fuzz(budget=50, seed=0)
        # one-off override without touching the session default:
        cold = s.run_suite(scale=0.3, options=replace(opts, cache=None))

The constructor also takes each knob as a keyword (``Session(jobs=4,
cache=True)`` maps onto the options value, byte-identically), and the
CLI builds its per-invocation options through one shared
:func:`options_from_args` helper so ``--jobs`` / ``--no-cache`` /
``--trace`` behave identically across every subcommand.

Every experiment runs its cells through
:func:`repro.engine.pool.run_cached` with the session's cache and one
*executor* built from ``jobs``, ``remote`` and ``tenant``: a
:class:`~repro.engine.pool.LocalExecutor`, or with
``RunOptions(remote="http://host:8732", tenant="alice")`` a
:class:`~repro.serve.client.ServeClient`, so the cache misses run on a
``repro serve`` fleet with byte-identical results.

Entering the session installs the JSONL tracer (when ``trace`` is set)
and enables the metrics registry (when ``metrics=True``); exiting
restores both, so observability state never leaks across sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from pathlib import Path
from typing import Callable, Optional, Union

from .core.heuristics import DEFAULT_HEURISTICS, FeedbackHeuristics
from .engine.pool import LocalExecutor
from .engine.suite import CacheLike, coerce_cache
from .obs import metrics as _metrics
from .obs import trace as _trace

#: Sentinel distinguishing "keyword not passed" from an explicit value
#: (so a keyword can override ``options=`` only when actually given).
_UNSET = object()


@dataclass(frozen=True)
class RunOptions:
    """Every execution knob of an experiment run, as one frozen value.

    Passed to :class:`Session` (held as the session default) or to any
    experiment method (one-off override).  Being frozen, variants are
    derived with :func:`dataclasses.replace` — which is exactly how
    explicit per-call keywords are layered on top.

    ``cache`` accepts the same forms as before (None/False = off, True =
    the default store, a path, or an :class:`~repro.engine.ArtifactCache`
    instance); ``cache_dir`` names the directory used when ``cache`` is
    True (None = ``.repro-cache/`` or ``$REPRO_CACHE_DIR``).  ``jobs``
    or, when set, ``remote``/``tenant`` choose the executor
    (:meth:`resolve_executor`).
    """

    jobs: int = 1
    cache: CacheLike = None
    cache_dir: Optional[Union[str, Path]] = None
    trace: Optional[Union[str, Path]] = None
    metrics: bool = False
    remote: Optional[str] = None
    tenant: str = "default"
    max_steps: int = 50_000_000
    strict: bool = False

    def resolve_cache(self):
        """The options' artifact store (or None): ``cache`` coerced, with
        ``cache=True`` landing at ``cache_dir`` when one is set."""
        if self.cache is True and self.cache_dir is not None:
            from .engine import ArtifactCache

            return ArtifactCache(self.cache_dir)
        return coerce_cache(self.cache)

    def resolve_executor(self):
        """The options' executor: a :class:`~repro.serve.ServeClient` for
        ``remote``/``tenant`` when ``remote`` is set, else a
        :class:`~repro.engine.pool.LocalExecutor` of ``jobs`` workers."""
        if self.remote is None:
            return LocalExecutor(self.jobs)
        from .serve import ServeClient

        return ServeClient(self.remote, tenant=self.tenant)


def options_from_args(args) -> RunOptions:
    """Build :class:`RunOptions` from a CLI argparse namespace.

    The one shared translation of the engine flags (``--jobs``,
    ``--no-cache``, ``--cache-dir``, ``--trace``,
    ``--remote``, ``--tenant``) every subcommand routes through, so the
    flags behave identically everywhere.  Flags a subcommand does not
    declare fall back to the option defaults (with the CLI-wide default
    of caching *on* unless ``--no-cache``).
    """
    return RunOptions(
        jobs=getattr(args, "jobs", 1),
        cache=not getattr(args, "no_cache", False),
        cache_dir=getattr(args, "cache_dir", None),
        trace=getattr(args, "trace", None),
        metrics=getattr(args, "metrics", False),
        remote=getattr(args, "remote", None),
        tenant=getattr(args, "tenant", "default"),
        max_steps=getattr(args, "max_steps", RunOptions.max_steps),
        strict=getattr(args, "strict", False),
    )


class Session:
    """One configured experiment context (see module docstring).

    Construction only records configuration; :meth:`start` (or entering
    the context manager) activates the observability sinks.  Running
    methods outside the context works too — they just run untraced
    unless a tracer is already installed.

    Execution knobs live on :attr:`options` (a :class:`RunOptions`);
    the legacy constructor keywords (``jobs=``, ``cache=``, ...) are
    mapped onto it and override an explicit ``options=`` value.
    ``trace_path=`` is the pre-RunOptions spelling of ``trace``.
    """

    def __init__(self,
                 heur: FeedbackHeuristics = DEFAULT_HEURISTICS,
                 config_overrides: Optional[dict] = None,
                 cache: CacheLike = _UNSET,
                 jobs: int = _UNSET,
                 max_steps: int = _UNSET,
                 strict: bool = _UNSET,
                 trace_path: Optional[Union[str, Path]] = _UNSET,
                 metrics: bool = _UNSET,
                 remote: Optional[str] = _UNSET,
                 tenant: str = _UNSET,
                 options: Optional[RunOptions] = None):
        self.heur = heur
        self.config_overrides = dict(config_overrides or {})
        opts = options if options is not None else RunOptions()
        legacy = {"cache": cache, "jobs": jobs, "max_steps": max_steps,
                  "strict": strict, "trace": trace_path, "metrics": metrics,
                  "remote": remote, "tenant": tenant}
        overrides = {k: v for k, v in legacy.items() if v is not _UNSET}
        if overrides:
            opts = dc_replace(opts, **overrides)
        #: The session's default :class:`RunOptions`.
        self.options = opts
        # The cache store and the executor are made once, so the store's
        # hit/miss counters (and identity, when an ArtifactCache instance
        # was passed) persist across the session's experiments.
        self._cache = opts.resolve_cache()
        self._executor = opts.resolve_executor()
        self._tracer: Optional[_trace.Tracer] = None

    # -- option plumbing ---------------------------------------------------

    def _resolve(self, options: Optional[RunOptions],
                 **explicit) -> RunOptions:
        """One experiment's effective options.

        Precedence: session default < per-call ``options=`` < explicit
        per-call keyword (``None`` means "not passed" for the keywords,
        which all have non-None session-level defaults).
        """
        opts = self.options if options is None else options
        overrides = {k: v for k, v in explicit.items() if v is not None}
        return dc_replace(opts, **overrides) if overrides else opts

    def _cache_of(self, opts: RunOptions):
        """*opts*' artifact store — the session's own coerced store
        whenever the cache knobs are untouched (preserving identity and
        counters), a freshly coerced one otherwise."""
        if opts.cache is self.options.cache \
                and opts.cache_dir == self.options.cache_dir:
            return self._cache
        return opts.resolve_cache()

    def _executor_of(self, opts: RunOptions):
        """*opts*' executor — the session's own whenever the executor
        knobs (``jobs``, ``remote``, ``tenant``) are untouched."""
        knobs = ("jobs", "remote", "tenant")
        if all(getattr(opts, k) == getattr(self.options, k) for k in knobs):
            return self._executor
        return opts.resolve_executor()

    # -- legacy attribute surface (reads resolve through the options) ------

    @property
    def jobs(self) -> int:
        """Worker-process count (``options.jobs``)."""
        return self.options.jobs

    @property
    def cache(self):
        """The session's coerced artifact store (None when caching is off)."""
        return self._cache

    @property
    def max_steps(self) -> int:
        """Per-cell functional step budget (``options.max_steps``)."""
        return self.options.max_steps

    @property
    def strict(self) -> bool:
        """Fail-fast flag (``options.strict``)."""
        return self.options.strict

    @property
    def trace_path(self):
        """JSONL span-trace destination (``options.trace``)."""
        return self.options.trace

    @property
    def metrics(self) -> bool:
        """Whether the metrics registry is enabled (``options.metrics``)."""
        return self.options.metrics

    @property
    def remote(self) -> Optional[str]:
        """Base URL of the evaluation service (``options.remote``)."""
        return self.options.remote

    @property
    def tenant(self) -> str:
        """Tenant namespace on the remote service (``options.tenant``)."""
        return self.options.tenant

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Session":
        """Activate the observability sinks (idempotent)."""
        if self.trace_path is not None and self._tracer is None:
            self._tracer = _trace.Tracer(self.trace_path)
            _trace.install(self._tracer)
        if self.metrics:
            _metrics.metrics_enable()
        return self

    def close(self) -> None:
        """Deactivate and flush the observability sinks (idempotent)."""
        if self._tracer is not None:
            if _trace.active_tracer() is self._tracer:
                _trace.uninstall()
            self._tracer.close()
            self._tracer = None
        if self.metrics:
            _metrics.metrics_disable()

    def __enter__(self) -> "Session":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- experiments -------------------------------------------------------

    def run_benchmark(self, name: str, prog, *,
                      max_steps: Optional[int] = None,
                      strict: Optional[bool] = None,
                      options: Optional[RunOptions] = None):
        """Run every evaluation scheme on one program (serial, uncached):
        ``run_suite(benchmarks={name: prog})[name]``."""
        from .engine import suite as _suite

        opts = self._resolve(options, max_steps=max_steps, strict=strict)
        return _suite.run_suite(
            benchmarks={name: prog}, heur=self.heur,
            config_overrides=self.config_overrides or None,
            max_steps=opts.max_steps, strict=opts.strict)[name]

    def run_suite(self, scale: float = 1.0, *,
                  benchmarks: Optional[dict] = None,
                  progress: Optional[Callable[[str], None]] = None,
                  seed: Optional[int] = None,
                  max_steps: Optional[int] = None,
                  strict: Optional[bool] = None,
                  options: Optional[RunOptions] = None):
        """Run the full suite through the session's cache and executor
        (the evaluation service with ``remote=`` set, on the session or
        the per-call options)."""
        opts = self._resolve(options, max_steps=max_steps, strict=strict)
        from .engine import suite as _suite

        return _suite.run_suite(
            scale=scale, heur=self.heur, benchmarks=benchmarks,
            config_overrides=self.config_overrides or None,
            progress=progress, max_steps=opts.max_steps,
            strict=opts.strict, executor=self._executor_of(opts),
            cache=self._cache_of(opts), seed=seed)

    def sweep(self, spec, *,
              progress: Optional[Callable[[str], None]] = None,
              options: Optional[RunOptions] = None):
        """Evaluate a :class:`~repro.engine.sweep.SweepSpec` grid.

        With ``remote=`` set, every point's misses ride the service
        queue (overlapping points and tenants share executions).
        """
        opts = self._resolve(options)
        from .engine import sweep as _sweep

        return _sweep.run_sweep(spec, executor=self._executor_of(opts),
                                cache=self._cache_of(opts),
                                progress=progress)

    def fuzz(self, cfg=None, *,
             progress: Optional[Callable[[str], None]] = None,
             options: Optional[RunOptions] = None, **kw):
        """Run a differential fuzzing campaign.

        Pass a full :class:`~repro.qa.campaign.CampaignConfig` as *cfg*,
        or keyword fields for one — the session supplies ``cache``
        unless overridden.  The misses run on the session's executor.
        """
        from .qa import campaign as _campaign

        opts = self._resolve(options)
        if cfg is None:
            kw.setdefault("cache", self._cache_of(opts))
            cfg = _campaign.CampaignConfig(**kw)
        return _campaign.run_campaign(cfg, progress=progress,
                                      executor=self._executor_of(opts))

    def tune(self, spec, *,
             progress: Optional[Callable[[str], None]] = None,
             options: Optional[RunOptions] = None):
        """Run a closed-loop heuristic search (see :mod:`repro.tune`).

        Candidates are evaluated as ordinary cached engine cells through
        the session's cache and executor, one batch per round (one
        service job per round with ``remote=`` set).  Returns a
        :class:`~repro.tune.TuneResult`.
        """
        from .tune import run_tune

        opts = self._resolve(options)
        return run_tune(spec, cache=self._cache_of(opts),
                        executor=self._executor_of(opts), progress=progress)

    def spectre(self, prog, *, sew: Optional[int] = None,
                untrusted: Optional[tuple] = None):
        """Run the speculative-safety analysis on one program.

        Returns the (possibly empty) list of
        :class:`~repro.robust.spectre.SpectreFinding` records.  Knobs
        default to the session heuristics' ``spectre_sew`` /
        ``spectre_untrusted`` / ``spectre_fence`` fields.
        """
        from .robust.spectre import SpectreConfig, analyze_program

        config = SpectreConfig(
            untrusted=(tuple(untrusted) if untrusted is not None
                       else tuple(self.heur.spectre_untrusted)),
            sew=self.heur.spectre_sew if sew is None else sew,
            mode="fence" if self.heur.spectre_fence else "suppress")
        with _trace.span("spectre.analyze", program=prog.name,
                         sew=config.sew):
            return analyze_program(prog, config)

    # -- reporting ---------------------------------------------------------

    def cache_stats(self) -> Optional[dict]:
        """The artifact cache's stats snapshot (None when caching is off)."""
        return self.cache.stats() if self.cache is not None else None

    def __repr__(self) -> str:
        where = (f"remote={self.remote!r}, tenant={self.tenant!r}"
                 if self.remote is not None else f"jobs={self.jobs}")
        return (f"Session({where}, "
                f"cache={'on' if self.cache else 'off'}, "
                f"trace={self.trace_path!r}, metrics={self.metrics})")

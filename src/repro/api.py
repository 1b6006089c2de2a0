"""The experiment front door: :class:`Session`.

:class:`Session` is the one supported way to run an experiment
(``run_suite`` / ``sweep`` / ``fuzz`` / ``tune`` / ``spectre``).  Its
constructor keywords are the only way to configure a run — artifact
cache, worker count, step budget, fail-fast, span trace and
remote routing — and they are decoded once, into the session's
artifact cache and cell executor, which every experiment method uses.

Usage::

    from repro.api import Session

    with Session(jobs=4, cache=True, trace_path="trace.jsonl") as s:
        runs = s.run_suite(scale=0.3)
        campaign = s.fuzz(budget=50, seed=0)

``cache`` is None or False (off), True (the default store,
``.repro-cache/`` or ``$REPRO_CACHE_DIR``), a directory, or an
:class:`~repro.engine.ArtifactCache`.  What varies per experiment
(scale, workloads, heuristics, machine-config overrides, seed) is a
keyword of the experiment method instead, and reaches every cell key.

Every experiment runs its cells through
:func:`repro.engine.pool.run_cached` with the session's cache and one
*executor*: a :class:`~repro.engine.pool.LocalExecutor` of ``jobs``
workers, or with ``remote="http://host:8732"`` (and ``tenant=``) a
:class:`~repro.serve.client.ServeClient`, so the cache misses run on a
``repro serve`` fleet with byte-identical results.

Entering the session installs the JSONL tracer (when ``trace_path`` is
set); exiting uninstalls it, so a trace never leaks across sessions.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Union

from .core.heuristics import DEFAULT_HEURISTICS, FeedbackHeuristics
from .engine.cache import ArtifactCache
from .engine.pool import LocalExecutor
from .obs import trace as _trace


class Session:
    """One configured experiment context (see module docstring).

    Construction only records configuration; :meth:`start` (or entering
    the context manager) installs the tracer.  Running methods outside
    the context works too — they just run untraced unless a tracer is
    already installed.
    """

    def __init__(self, *,
                 cache: Union[None, bool, str, Path, ArtifactCache] = None,
                 jobs: int = 1,
                 max_steps: int = 50_000_000,
                 strict: bool = False,
                 trace_path: Optional[Union[str, Path]] = None,
                 remote: Optional[str] = None,
                 tenant: str = "default"):
        # The store and the executor are made once, so the store's
        # hit/miss counters (and identity, when an ArtifactCache was
        # passed) persist across the session's experiments.
        self.cache: Optional[ArtifactCache]
        if cache is None or cache is False:
            self.cache = None
        elif isinstance(cache, ArtifactCache):
            self.cache = cache
        else:
            self.cache = ArtifactCache(None if cache is True else cache)
        if remote is None:
            self.executor = LocalExecutor(jobs)
        else:
            from .serve import ServeClient

            self.executor = ServeClient(remote, tenant=tenant)
        self.max_steps = max_steps
        self.strict = strict
        self.trace_path = trace_path
        self._tracer: Optional[_trace.Tracer] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Session":
        """Install the tracer, when ``trace_path`` is set (idempotent)."""
        if self.trace_path is not None and self._tracer is None:
            self._tracer = _trace.Tracer(self.trace_path)
            _trace.install(self._tracer)
        return self

    def close(self) -> None:
        """Uninstall and flush the tracer (idempotent)."""
        if self._tracer is not None:
            if _trace.active_tracer() is self._tracer:
                _trace.uninstall()
            self._tracer.close()
            self._tracer = None

    def __enter__(self) -> "Session":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- experiments -------------------------------------------------------

    def run_suite(self, scale: float = 1.0, *,
                  benchmarks: Optional[dict] = None,
                  heur: FeedbackHeuristics = DEFAULT_HEURISTICS,
                  config_overrides: Optional[dict] = None,
                  progress: Optional[Callable[[str], None]] = None,
                  seed: Optional[int] = None):
        """Run the (benchmark, scheme) grid through the session's cache
        and executor; returns ``{benchmark: BenchmarkRun}``.

        *benchmarks* replaces the synthetic suite at *scale* (one
        program's run is ``run_suite(benchmarks={name: prog})[name]``);
        *seed* re-seeds its inputs; *heur* and *config_overrides* are
        hashed into every cell key.
        """
        from .engine import suite as _suite

        return _suite.run_suite(
            scale=scale, heur=heur, benchmarks=benchmarks,
            config_overrides=config_overrides, progress=progress,
            max_steps=self.max_steps, strict=self.strict,
            executor=self.executor, cache=self.cache, seed=seed)

    def sweep(self, spec, *,
              progress: Optional[Callable[[str], None]] = None):
        """Evaluate a :class:`~repro.engine.sweep.SweepSpec` grid.

        With ``remote=`` set, every point's misses ride the service
        queue (overlapping points and tenants share executions).
        """
        from .engine import sweep as _sweep

        return _sweep.run_sweep(spec, executor=self.executor,
                                cache=self.cache, progress=progress)

    def fuzz(self, *, progress: Optional[Callable[[str], None]] = None,
             **fields):
        """Run a differential fuzzing campaign.

        *fields* are the :class:`~repro.qa.campaign.CampaignConfig`
        fields other than ``cache``; the campaign reads and fills the
        session's cache, and its misses run on the session's executor.
        """
        from .qa import campaign as _campaign

        cfg = _campaign.CampaignConfig(cache=self.cache, **fields)
        return _campaign.run_campaign(cfg, progress=progress,
                                      executor=self.executor)

    def tune(self, spec, *,
             progress: Optional[Callable[[str], None]] = None):
        """Run a closed-loop heuristic search (see :mod:`repro.tune`).

        Candidates are evaluated as ordinary cached engine cells through
        the session's cache and executor, one batch per round (one
        service job per round with ``remote=`` set).  Returns a
        :class:`~repro.tune.TuneResult`.
        """
        from .tune import run_tune

        return run_tune(spec, cache=self.cache, executor=self.executor,
                        progress=progress)

    def spectre(self, prog, *, sew: Optional[int] = None,
                untrusted: Optional[tuple] = None):
        """Run the speculative-safety analysis on one program.

        Returns the (possibly empty) list of
        :class:`~repro.robust.spectre.SpectreFinding` records.  Knobs
        default to the ``spectre_sew`` / ``spectre_untrusted`` /
        ``spectre_fence`` fields of
        :data:`~repro.core.heuristics.DEFAULT_HEURISTICS`.
        """
        from .robust.spectre import SpectreConfig, analyze_program

        heur = DEFAULT_HEURISTICS
        config = SpectreConfig(
            untrusted=(tuple(untrusted) if untrusted is not None
                       else tuple(heur.spectre_untrusted)),
            sew=heur.spectre_sew if sew is None else sew,
            mode="fence" if heur.spectre_fence else "suppress")
        with _trace.span("spectre.analyze", program=prog.name,
                         sew=config.sew):
            return analyze_program(prog, config)

    def __repr__(self) -> str:
        return (f"Session({self.executor!r}, "
                f"cache={'on' if self.cache else 'off'}, "
                f"trace={self.trace_path!r})")

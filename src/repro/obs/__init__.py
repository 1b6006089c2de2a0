"""Observability layer: tracing spans, metrics, and profiling hooks.

The paper's claims are about *where cycles go*; this package makes every
layer of the reproduction account for its time and events without
perturbing the measurements it observes:

* :mod:`~repro.obs.trace` — context-manager **spans** with monotonic
  timing and structured attributes, emitted as JSONL.  A process-global
  tracer is installed with :func:`tracing`/:func:`install`; when none is
  installed, :func:`span` returns a shared no-op span, so instrumented
  code pays one global load and an attribute check per span;
* :mod:`~repro.obs.metrics` — named **counters and histograms** in a
  process-global registry with a disabled-by-default no-op fast path;
* :mod:`~repro.obs.pipeline_obs` — an opt-in **observer** for the cycle
  simulator deriving fetch/issue/retire rates, mispredict intervals,
  per-branch outcome entropy, and sampled hot-PC histograms from the
  existing counters, attached by method rebinding so the simulator's hot
  loop is untouched when observation is off;
* :mod:`~repro.obs.summarize` — aggregation of a JSONL trace into the
  per-pass / per-cell timing table behind ``repro trace summarize``.

Span and metric naming conventions are documented in
docs/OBSERVABILITY.md.
"""

from .metrics import (
    Counter, Histogram, MetricsRegistry, REGISTRY, metrics_disable,
    metrics_enable, metrics_snapshot,
)
from .pipeline_obs import PipelineObserver, heat_report, maybe_observer
from .summarize import summarize_trace
from .trace import (
    NULL_SPAN, Span, Tracer, active_tracer, install, read_trace, span,
    tracing, uninstall,
)

__all__ = [
    "Counter", "Histogram", "MetricsRegistry", "REGISTRY",
    "metrics_disable", "metrics_enable", "metrics_snapshot",
    "PipelineObserver", "heat_report", "maybe_observer",
    "summarize_trace",
    "NULL_SPAN", "Span", "Tracer", "active_tracer", "install",
    "read_trace", "span", "tracing", "uninstall",
]

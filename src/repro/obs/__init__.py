"""Observability layer: tracing spans and hot-PC sampling.

The paper's claims are about *where cycles go*; this package makes every
layer of the reproduction account for its time without perturbing the
measurements it observes:

* :mod:`~repro.obs.trace` — context-manager **spans** with monotonic
  timing and structured attributes, emitted as JSONL.  A tracer is
  installed for the calling thread with :func:`tracing`/:func:`install`;
  when none is installed, :func:`span` returns a shared no-op span, so
  instrumented code pays one context-variable read and a check per span;
* :mod:`~repro.obs.pipeline_obs` — a **hot-PC sampler** over the fast
  simulator's batch stream (``repro run --sample N``), rendered per
  basic block by :func:`heat_report`;
* :mod:`~repro.obs.summarize` — aggregation of a JSONL trace into the
  per-pass / per-cell timing table behind ``repro trace summarize``.

Each run's counts live with their owners, not here: the simulator's
``SimStats`` and the compile's decision counts are in every cell
payload (docs/OBSERVABILITY.md lists where each count lives).  Span
naming conventions are documented in docs/OBSERVABILITY.md.
"""

from .pipeline_obs import PipelineObserver, heat_report
from .summarize import summarize_trace
from .trace import (
    NULL_SPAN, Span, Tracer, active_tracer, install, read_trace, span,
    tracing, uninstall,
)

__all__ = [
    "PipelineObserver", "heat_report",
    "summarize_trace",
    "NULL_SPAN", "Span", "Tracer", "active_tracer", "install",
    "read_trace", "span", "tracing", "uninstall",
]

"""Named counters and histograms with a disabled no-op fast path.

The registry is process-global and **disabled by default**: every
recording call (:meth:`MetricsRegistry.inc`,
:meth:`MetricsRegistry.observe`) starts with one boolean check and
returns immediately when metrics are off, so instrumented code paths pay
effectively nothing in normal runs.

Naming convention (see docs/OBSERVABILITY.md): dot-separated
``<layer>.<event>`` — e.g. ``engine.cache.hits``,
``compiler.ops_speculated``, ``pipeline.retire_per_cycle``.  Counters
count events; histograms record distributions against explicit bucket
upper bounds (the last bucket is the overflow ``+inf`` bucket).

Like the tracer, the registry is per-process: worker processes of
:mod:`repro.engine.pool` accumulate into their own (disabled) registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

#: Default histogram bucket upper bounds (small-count distributions such
#: as per-cycle rates).  The implicit final bucket catches everything
#: above the last bound.
DEFAULT_BOUNDS = (0, 1, 2, 4, 8, 16, 32, 64)


@dataclass
class Counter:
    """A monotonically increasing named count."""

    name: str
    value: int = 0

    def inc(self, n: int = 1) -> None:
        """Add *n* (default 1)."""
        self.value += n


@dataclass
class Histogram:
    """Bucketed distribution against explicit upper bounds.

    ``counts[i]`` counts observations ``<= bounds[i]``; ``counts[-1]``
    is the overflow bucket.  ``total``/``count`` give the exact mean, so
    coarse buckets never lose the first moment.
    """

    name: str
    bounds: tuple = DEFAULT_BOUNDS
    counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        """Record one observation."""
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        """Exact mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of this histogram."""
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "count": self.count, "total": self.total,
                "mean": self.mean}


class MetricsRegistry:
    """Process-global named metrics with an enable/disable gate.

    Metric objects are created lazily on first recording *while
    enabled*; :meth:`counter`/:meth:`histogram` create eagerly (useful
    in tests).  Disabling does not clear values — :meth:`reset` does.
    """

    def __init__(self) -> None:
        self._enabled = False
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- gate --------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True when recording calls take effect."""
        return self._enabled

    def enable(self) -> None:
        """Turn recording on."""
        self._enabled = True

    def disable(self) -> None:
        """Turn recording off (values are kept; see :meth:`reset`)."""
        self._enabled = False

    # -- access ------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The named counter, created if absent."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BOUNDS) -> Histogram:
        """The named histogram, created with *bounds* if absent."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, tuple(bounds))
        return h

    # -- recording (no-op fast path) ---------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        """Increment a counter; does nothing when disabled."""
        if not self._enabled:
            return
        self.counter(name).inc(n)

    def observe(self, name: str, value: float,
                bounds: Optional[Sequence[float]] = None) -> None:
        """Record into a histogram; does nothing when disabled."""
        if not self._enabled:
            return
        self.histogram(name, bounds if bounds is not None
                       else DEFAULT_BOUNDS).observe(value)

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable state: ``{"counters": .., "histograms": ..}``."""
        return {
            "counters": {n: c.value
                         for n, c in sorted(self._counters.items())},
            "histograms": {n: h.to_dict()
                           for n, h in sorted(self._histograms.items())},
        }

    def reset(self) -> None:
        """Drop every metric (the gate state is unchanged)."""
        self._counters.clear()
        self._histograms.clear()


#: The process-global registry all instrumented code records into.
REGISTRY = MetricsRegistry()


def metrics_enable() -> None:
    """Enable recording on the global registry."""
    REGISTRY.enable()


def metrics_disable() -> None:
    """Disable recording on the global registry."""
    REGISTRY.disable()


def metrics_snapshot() -> dict:
    """Snapshot of the global registry."""
    return REGISTRY.snapshot()

"""Metrics registry: no-op fast path, counters, histogram buckets."""

from repro.obs.metrics import (
    DEFAULT_BOUNDS, Counter, Histogram, MetricsRegistry, REGISTRY,
    metrics_disable, metrics_enable, metrics_snapshot,
)


def test_disabled_recording_is_a_no_op():
    reg = MetricsRegistry()
    assert not reg.enabled
    reg.inc("a.b")
    reg.observe("c.d", 3.0)
    snap = reg.snapshot()
    assert snap == {"counters": {}, "histograms": {}}


def test_enable_then_record():
    reg = MetricsRegistry()
    reg.enable()
    reg.inc("engine.cache.hits")
    reg.inc("engine.cache.hits", 4)
    reg.observe("pipeline.retire_per_cycle", 2)
    snap = reg.snapshot()
    assert snap["counters"] == {"engine.cache.hits": 5}
    assert snap["histograms"]["pipeline.retire_per_cycle"]["count"] == 1


def test_disable_keeps_values_reset_clears_them():
    reg = MetricsRegistry()
    reg.enable()
    reg.inc("x")
    reg.disable()
    reg.inc("x")  # ignored
    assert reg.snapshot()["counters"] == {"x": 1}
    reg.reset()
    assert reg.snapshot()["counters"] == {}
    assert not reg.enabled  # reset leaves the gate alone


def test_counter_eager_creation():
    reg = MetricsRegistry()
    c = reg.counter("made.eagerly")
    assert isinstance(c, Counter)
    assert c.value == 0
    assert reg.counter("made.eagerly") is c


def test_histogram_buckets_and_overflow():
    h = Histogram("h", bounds=(1, 2, 4))
    for v in (0, 1, 2, 3, 4, 100):
        h.observe(v)
    # counts[i] counts observations <= bounds[i]; counts[-1] overflows.
    assert h.counts == [2, 1, 2, 1]
    assert h.count == 6
    assert h.total == 110
    assert h.mean == 110 / 6
    d = h.to_dict()
    assert d["bounds"] == [1, 2, 4]
    assert d["mean"] == h.mean


def test_histogram_default_bounds():
    h = Histogram("h")
    assert h.bounds == DEFAULT_BOUNDS
    assert len(h.counts) == len(DEFAULT_BOUNDS) + 1
    assert h.mean == 0.0


def test_custom_bounds_via_observe():
    reg = MetricsRegistry()
    reg.enable()
    reg.observe("gap", 1000, bounds=(10, 100, 1000))
    h = reg.snapshot()["histograms"]["gap"]
    assert h["bounds"] == [10, 100, 1000]
    assert h["counts"] == [0, 0, 1, 0]


def test_global_helpers_round_trip():
    assert not REGISTRY.enabled
    metrics_enable()
    try:
        assert REGISTRY.enabled
        REGISTRY.inc("global.test")
        assert metrics_snapshot()["counters"]["global.test"] == 1
    finally:
        metrics_disable()
    assert not REGISTRY.enabled

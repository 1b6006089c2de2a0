"""Cache model tests."""

import pytest

from repro.sim.cache import Cache


def test_cold_miss_then_hit():
    c = Cache(size=1024, line=32, assoc=1)
    assert c.access(0) is False
    assert c.access(0) is True
    assert c.access(4) is True  # same line
    assert c.access(32) is False  # next line


def test_direct_mapped_conflict():
    c = Cache(size=1024, line=32, assoc=1)  # 32 sets
    c.access(0)
    assert c.access(1024) is False  # maps to set 0, evicts
    assert c.access(0) is False     # evicted


def test_two_way_avoids_conflict():
    c = Cache(size=1024, line=32, assoc=2)  # 16 sets
    c.access(0)
    c.access(1024)
    assert c.access(0) is True
    assert c.access(1024) is True


def test_lru_within_set():
    c = Cache(size=1024, line=32, assoc=2)
    c.access(0)       # A
    c.access(1024)    # B
    c.access(0)       # touch A (MRU)
    c.access(2048)    # C evicts B (LRU)
    assert c.access(0) is True
    assert c.access(1024) is False


def test_stats():
    c = Cache(size=1024, line=32, assoc=1)
    c.access(0)
    c.access(0)
    c.access(0)
    assert c.stats.accesses == 3
    assert c.stats.misses == 1
    assert abs(c.stats.hit_rate - 2 / 3) < 1e-12


def test_validation():
    with pytest.raises(ValueError):
        Cache(size=1000, line=32, assoc=1)
    with pytest.raises(ValueError):
        Cache(size=1024, line=24, assoc=1)

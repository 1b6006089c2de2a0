"""Concurrent multi-process mutation of one ArtifactCache root.

Writes are already atomic (temp file + ``os.replace``); the historical
gap was the index/LRU path: a process could ``stat``/``unlink`` an entry
another process had just evicted and crash on ``ENOENT``.  These tests
hammer one store from several processes with an eviction-tight size cap
and assert every operation degrades to a miss/skip, never an exception.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.engine.cache import ArtifactCache


def _hammer(args: tuple) -> int:
    """One worker: interleaved put/get/clear cycles against a shared root.

    Returns the number of successful operations; any unexpected exception
    propagates and fails the test in the parent.
    """
    root, worker, rounds = args
    # Tight cap (a few KB) so almost every put triggers the LRU scan and
    # eviction path while the sibling process mutates the same files.
    store = ArtifactCache(root, max_bytes=4096)
    done = 0
    payload = {"blob": "x" * 512}
    for i in range(rounds):
        key = f"{i % 7:02x}{worker}{i:04d}".ljust(64, "0")
        store.put(key, payload)
        store.get(key)
        store.get(f"{i % 7:02x}".ljust(64, "f"))  # guaranteed miss path
        if i % 25 == 24:
            store.clear()
        done += 1
    return done


@pytest.mark.parametrize("procs", [2])
def test_two_processes_hammering_one_store(tmp_path, procs):
    """Two processes put/get/evict/clear the same root without crashing."""
    rounds = 120
    with ProcessPoolExecutor(max_workers=procs) as ex:
        results = list(ex.map(
            _hammer, [(str(tmp_path), w, rounds) for w in range(procs)]))
    assert results == [rounds] * procs

    # Whatever survived must still be a readable, schema-valid store.
    store = ArtifactCache(tmp_path, max_bytes=4096)
    for p in store._entry_files():
        entry = json.loads(p.read_text())
        assert set(entry) == {"schema", "key", "payload"}


def test_evict_tolerates_entries_vanishing(tmp_path, monkeypatch):
    """The LRU scan skips entries another process deleted mid-scan."""
    store = ArtifactCache(tmp_path, max_bytes=1)
    store.put("aa" + "0" * 62, {"v": 1})
    store.put("ab" + "0" * 62, {"v": 2})

    real_files = store._entry_files()
    assert real_files

    def racing_entry_files():
        # Simulate the race: the files were listed, then a concurrent
        # process evicted them before this process could stat them.
        for p in real_files:
            p.unlink(missing_ok=True)
        return real_files

    monkeypatch.setattr(store, "_entry_files", racing_entry_files)
    evictions = store.counters.evictions
    store._evict()  # must not raise
    assert store.counters.evictions == evictions


def test_get_tolerates_entry_vanishing_between_read_and_utime(tmp_path):
    """A hit whose file vanishes before the LRU touch stays a hit."""
    store = ArtifactCache(tmp_path)
    key = "cc" + "0" * 62
    store.put(key, {"v": 3})

    path = store._path(key)
    body = path.read_text()

    # Re-create then delete during get: easiest deterministic stand-in is
    # deleting right before get touches it — os.utime must not raise.
    path.unlink()
    assert store.get(key) is None  # ENOENT on read = miss, not crash
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(body)
    assert store.get(key) == {"v": 3}

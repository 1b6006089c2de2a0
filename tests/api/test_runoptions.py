"""Run options: a session's keywords and the CLI's engine flags.

A run is configured by :class:`repro.api.Session`'s constructor keywords
alone; the CLI maps each engine flag onto one of them in
``repro.__main__._session_from``.
"""

import argparse

from repro.__main__ import _session_from, build_parser
from repro.api import Session
from repro.engine import ArtifactCache, LocalExecutor
from repro.serve import ServeClient
from repro.workloads import benchmark_programs

SCALE = 0.01


def _session(argv):
    return _session_from(build_parser().parse_args(argv))


# -- the cache keyword ------------------------------------------------------

def test_cache_instance_identity_preserved(tmp_path):
    """A store passed in is the session's store, and the session's runs
    fill and then read it."""
    store = ArtifactCache(tmp_path / "store")
    prog = benchmark_programs(SCALE)["compress"]
    with Session(cache=store) as s:
        assert s.cache is store
        s.run_suite(benchmarks={"compress": prog})
        misses = store.counters.misses
        s.run_suite(benchmarks={"compress": prog})
    assert misses > 0
    assert (store.counters.hits, store.counters.misses) == (misses, misses)


def test_cache_true_with_cache_dir(tmp_path, monkeypatch):
    """``cache=True`` is the default store; ``--cache-dir D`` a store at D."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    assert Session(cache=True).cache.root == tmp_path / "env"
    assert _session(["tables"]).cache.root == tmp_path / "env"
    store = tmp_path / "d"
    assert _session(["tables", "--cache-dir", str(store)]).cache.root \
        == store


# -- the CLI's engine flags -------------------------------------------------

def test_options_from_args_full_namespace(tmp_path):
    """Each engine flag sets one :class:`~repro.api.Session` keyword."""
    s = _session(["tables", "--jobs", "3", "--cache-dir", str(tmp_path),
                  "--trace", "t.jsonl", "--strict"])
    assert s.executor.jobs == 3
    assert s.cache.root == tmp_path
    assert (s.trace_path, s.strict) == ("t.jsonl", True)
    assert _session(["fuzz", "--trace", "o.jsonl"]).trace_path \
        == "o.jsonl"
    client = _session(["tables", "--remote", "http://127.0.0.1:1",
                       "--tenant", "t"]).executor
    assert isinstance(client, ServeClient)
    assert (client.base_url, client.tenant) == ("http://127.0.0.1:1", "t")


def test_options_from_args_no_cache_flag(tmp_path, monkeypatch):
    """Caching is on unless ``--no-cache``, which also beats
    ``--cache-dir``."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert isinstance(_session(["tables"]).cache, ArtifactCache)
    assert _session(["tables", "--no-cache"]).cache is None
    assert _session(["tables", "--no-cache",
                     "--cache-dir", str(tmp_path)]).cache is None


def test_options_from_args_missing_flags_fall_back():
    """A flag the subcommand does not declare, or does not pass, keeps
    the session default."""
    default = Session()
    bare = _session_from(argparse.Namespace(
        no_cache=True, cache_dir=None, jobs=1, trace=None))
    undeclared = _session(["fuzz", "--no-cache"])   # no --strict,
    plain = _session(["tables", "--no-cache"])      # --remote ...
    for s in (bare, undeclared, plain):
        assert isinstance(s.executor, LocalExecutor)
        assert s.executor.jobs == 1
        assert (s.max_steps, s.strict) == (default.max_steps, False)
    assert (bare.trace_path, plain.trace_path) == (None, None)

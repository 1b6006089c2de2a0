"""RunOptions: precedence chain, legacy-kwarg mapping, CLI translation."""

import argparse
import warnings
from dataclasses import replace

import pytest

from repro.api import RunOptions, Session, options_from_args
from repro.engine import ArtifactCache


# -- construction and legacy mapping ----------------------------------------

def test_session_defaults_match_runoptions_defaults():
    s = Session()
    assert s.jobs == 1
    assert s.cache is None
    assert s.max_steps == RunOptions.max_steps
    assert s.strict is False


def test_legacy_kwargs_map_onto_options():
    s = Session(jobs=3, max_steps=123, strict=True, metrics=True,
                trace_path="t.jsonl", tenant="alice")
    assert s.options.jobs == 3
    assert s.options.max_steps == 123
    assert s.options.strict is True
    assert s.options.metrics is True
    assert s.options.trace == "t.jsonl"
    assert s.options.tenant == "alice"
    # legacy read surface resolves through the options
    assert (s.jobs, s.max_steps, s.strict) == (3, 123, True)
    assert s.trace_path == "t.jsonl"


def test_options_object_configures_session():
    opts = RunOptions(jobs=4, max_steps=77, strict=True)
    s = Session(options=opts)
    assert (s.jobs, s.max_steps, s.strict) == (4, 77, True)


def test_explicit_legacy_kwarg_overrides_options():
    opts = RunOptions(jobs=4, strict=True)
    s = Session(options=opts, jobs=2)
    assert s.jobs == 2           # explicit kwarg wins
    assert s.strict is True      # untouched field survives


def test_explicit_false_overrides_options_true():
    # _UNSET (not False/None) is the "not passed" sentinel: an explicit
    # falsy value must still override the options object.
    opts = RunOptions(strict=True, metrics=True)
    s = Session(options=opts, strict=False, metrics=False)
    assert s.strict is False
    assert s.metrics is False


def test_cache_instance_identity_preserved():
    store = ArtifactCache()
    assert Session(cache=store).cache is store
    assert Session(options=RunOptions(cache=store)).cache is store


def test_cache_true_with_cache_dir(tmp_path):
    s = Session(options=RunOptions(cache=True, cache_dir=tmp_path / "c"))
    assert s.cache is not None
    assert str(s.cache.root).startswith(str(tmp_path))


def test_runoptions_is_frozen_and_replaceable():
    opts = RunOptions(jobs=2)
    with pytest.raises(Exception):
        opts.jobs = 3
    assert replace(opts, jobs=3).jobs == 3
    assert opts.jobs == 2


# -- per-call precedence ----------------------------------------------------

def test_per_call_options_override_session_default():
    s = Session(max_steps=100)
    eff = s._resolve(RunOptions(max_steps=200))
    assert eff.max_steps == 200


def test_explicit_kwarg_overrides_per_call_options():
    s = Session(max_steps=100)
    eff = s._resolve(RunOptions(max_steps=200), max_steps=300)
    assert eff.max_steps == 300


def test_session_default_used_when_nothing_passed():
    s = Session(max_steps=100)
    eff = s._resolve(None)
    assert eff.max_steps == 100


def test_per_call_options_route_to_run_suite(monkeypatch):
    """run_suite forwards the per-call options' knobs to the engine."""
    from repro.engine import suite as _suite

    seen = {}

    def fake_run_suite(**kw):
        seen.update(kw)
        return {}

    monkeypatch.setattr(_suite, "run_suite", fake_run_suite)
    s = Session(jobs=1, max_steps=111)
    s.run_suite(scale=0.01, options=RunOptions(jobs=5, max_steps=222))
    assert seen["executor"].jobs == 5
    assert seen["max_steps"] == 222


def test_per_call_explicit_kwarg_beats_per_call_options(monkeypatch):
    from repro.engine import suite as _suite

    seen = {}

    def fake_run_suite(**kw):
        seen.update(kw)
        return {}

    monkeypatch.setattr(_suite, "run_suite", fake_run_suite)
    Session().run_suite(scale=0.01, options=RunOptions(max_steps=222),
                        max_steps=333)
    assert seen["max_steps"] == 333


def test_per_call_cache_override_uses_fresh_store(tmp_path):
    """Overriding the cache knobs resolves a fresh store; leaving them
    untouched reuses the session's coerced instance (counters intact)."""
    s = Session(cache=True)
    same = s._cache_of(s._resolve(None))
    assert same is s.cache
    fresh = s._cache_of(s._resolve(
        replace(s.options, cache=str(tmp_path / "x"))))
    assert fresh is not s.cache


def test_byte_identical_results_via_options_vs_legacy():
    import json

    from repro.eval import suite_to_dict

    with Session(jobs=1) as a:
        legacy = a.run_suite(scale=0.01)
    with Session(options=RunOptions(jobs=1)) as b:
        modern = b.run_suite(scale=0.01)
    assert json.dumps(suite_to_dict(legacy), sort_keys=True) \
        == json.dumps(suite_to_dict(modern), sort_keys=True)


# -- Session.run_benchmark is the suite runner on one program --------------

def test_session_resolution_never_warns():
    from repro.workloads import benchmark_programs

    prog = benchmark_programs(0.01)["compress"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with Session(options=RunOptions(jobs=1)) as s:
            s.run_benchmark("compress", prog,
                            options=RunOptions(max_steps=1_000_000))


def test_monkeypatched_legacy_impl_still_reached(monkeypatch):
    """Session.run_benchmark resolves the suite runner at call time and
    returns its one benchmark's run, with the per-call knobs applied."""
    from repro.engine import suite as _suite

    calls = {}
    prog = object()

    def fake(**kw):
        calls.update(kw)
        return {"x": "sentinel"}

    monkeypatch.setattr(_suite, "run_suite", fake)
    out = Session().run_benchmark(
        "x", prog, options=RunOptions(max_steps=42, strict=True))
    assert out == "sentinel"
    assert calls["benchmarks"] == {"x": prog}
    assert calls["max_steps"] == 42
    assert calls["strict"] is True


# -- options_from_args (the one shared CLI translation) ---------------------

def _ns(**kw):
    return argparse.Namespace(**kw)


def test_options_from_args_full_namespace():
    opts = options_from_args(_ns(
        jobs=7, no_cache=False, cache_dir="/tmp/c",
        trace="t.jsonl", metrics=True, remote="http://h:1", tenant="bob",
        max_steps=99, strict=True))
    assert opts == RunOptions(
        jobs=7, cache=True, cache_dir="/tmp/c",
        trace="t.jsonl", metrics=True, remote="http://h:1", tenant="bob",
        max_steps=99, strict=True)


def test_options_from_args_no_cache_flag():
    assert options_from_args(_ns(no_cache=True)).cache is False
    assert options_from_args(_ns(no_cache=False)).cache is True


def test_options_from_args_missing_flags_fall_back():
    opts = options_from_args(_ns())
    assert opts.jobs == 1
    assert opts.cache is True   # CLI-wide default: caching on
    assert opts.tenant == "default"
    assert opts.max_steps == RunOptions.max_steps

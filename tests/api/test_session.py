"""Session facade: delegation equivalence, lifecycle, cache plumbing."""

import inspect
import json
import warnings

import pytest

from repro.api import Session
from repro.core import schemes
from repro.engine import ArtifactCache, CellSpec, SweepSpec, execute_cell
from repro.eval import suite_to_dict
from repro.obs import trace as _trace
from repro.workloads import benchmark_programs

SCALE = 0.01


def test_session_defaults():
    s = Session()
    assert s.executor.jobs == 1
    assert s.cache is None
    assert s.max_steps == 50_000_000
    assert s.strict is False
    assert s.trace_path is None


def test_session_keywords_are_the_one_way_to_configure_a_run():
    """No second spelling of the constructor, no per-call override of
    a session keyword, and one decoder of the cache forms."""
    import repro.api as api
    import repro.engine as engine

    assert not hasattr(api, "RunOptions")
    assert not hasattr(api, "options_from_args")
    assert set(inspect.signature(Session).parameters) == {
        "cache", "jobs", "max_steps", "strict", "trace_path", "remote",
        "tenant"}
    with pytest.raises(TypeError):
        Session(metrics=True)
    for method in (Session.run_suite, Session.sweep, Session.fuzz,
                   Session.tune):
        params = inspect.signature(method).parameters
        for knob in ("options", "max_steps", "strict"):
            assert knob not in params, f"{method.__name__}({knob}=)"
    assert not hasattr(Session, "run_benchmark")
    assert not hasattr(Session, "cache_stats")
    assert not hasattr(engine, "coerce_cache")


def test_run_suite_matches_legacy_byte_for_byte():
    """The session's suite equals the engine's free function with the
    session's defaults (no cache, one job)."""
    from repro.engine import run_suite

    with Session() as s:
        via_session = s.run_suite(scale=SCALE)
    legacy = run_suite(scale=SCALE)
    assert json.dumps(suite_to_dict(via_session), sort_keys=True) \
        == json.dumps(suite_to_dict(legacy), sort_keys=True)


def test_run_benchmark_matches_legacy():
    """Each cell of a one-benchmark suite equals that cell executed
    alone, with no benchmark memo, on a payload-built program."""
    prog = benchmark_programs(SCALE)["compress"]
    with Session() as s:
        via_session = s.run_suite(benchmarks={"compress": prog})["compress"]
    alone = {sc.name: execute_cell(CellSpec(
        benchmark="compress", scheme=sc.name,
        program=prog.to_dict())).to_dict()
        for sc in schemes.columns()}
    assert json.dumps(via_session.to_dict()["results"], sort_keys=True) \
        == json.dumps(alone, sort_keys=True)


def test_sweep_matches_legacy():
    from repro.engine import run_sweep

    spec = SweepSpec(scales=(SCALE,), benchmarks=("compress",))
    with Session() as s:
        via_session = s.sweep(spec)
    legacy = run_sweep(spec)
    assert json.dumps(via_session, sort_keys=True, default=str) \
        == json.dumps(legacy, sort_keys=True, default=str)


def test_fuzz_matches_legacy():
    from repro.qa import CampaignConfig, run_campaign

    with Session(cache=None) as s:
        via_session = s.fuzz(budget=3, seed=0, shrink=False)
    legacy = run_campaign(CampaignConfig(budget=3, seed=0, shrink=False))
    assert json.dumps(via_session.summary.to_dict(), sort_keys=True) \
        == json.dumps(legacy.summary.to_dict(), sort_keys=True)


def test_fuzz_reads_and_fills_the_session_cache(tmp_path):
    """A campaign always runs through the session's cache; there is no
    second spelling that carries a cache of its own."""
    from repro.qa import CampaignConfig

    store = ArtifactCache(tmp_path / "store")
    with Session(cache=store) as s:
        s.fuzz(budget=2, seed=0, shrink=False)
        with pytest.raises(TypeError):
            s.fuzz(CampaignConfig(budget=2, seed=0, shrink=False))
    assert (store.counters.hits, store.counters.misses) == (0, 2)
    assert store.stats()["entries"] == 2


def test_fuzz_accepts_keyword_config():
    with Session(jobs=1) as s:
        result = s.fuzz(budget=2, seed=1, shrink=False)
    assert result.summary.budget == 2
    assert result.summary.seed == 1


def test_session_methods_do_not_warn():
    prog = benchmark_programs(SCALE)["compress"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with Session() as s:
            s.run_suite(scale=SCALE, benchmarks={"compress": prog})


def test_tracer_lifecycle(tmp_path):
    path = tmp_path / "t.jsonl"
    session = Session(trace_path=path)
    assert _trace.active_tracer() is None
    with session:
        assert _trace.active_tracer() is session._tracer
        with _trace.span("unit-test"):
            pass
    assert _trace.active_tracer() is None
    records = _trace.read_trace(path)
    assert [r["name"] for r in records] == ["unit-test"]


def test_start_close_idempotent(tmp_path):
    session = Session(trace_path=tmp_path / "t.jsonl")
    session.start()
    session.start()
    session.close()
    session.close()
    assert _trace.active_tracer() is None


def test_traced_suite_covers_passes_and_cells(tmp_path):
    path = tmp_path / "suite.jsonl"
    with Session(trace_path=path) as s:
        s.run_suite(scale=SCALE)
    names = {r["name"] for r in _trace.read_trace(path)}
    for required in ("suite.run", "compile.baseline", "compile.proposed",
                     "pass.profile", "pass.decide",
                     "cell.2bitBP", "cell.Proposed", "cell.PerfectBP",
                     "cell.safe-speculative"):
        assert required in names, f"missing span {required}"


def test_concurrent_sessions_write_their_own_traces(tmp_path):
    """Two sessions entered on two threads, then run together: each
    trace parses and holds exactly its own suite's spans."""
    import threading

    programs = benchmark_programs(SCALE)
    names = ("grep", "compress")
    barrier = threading.Barrier(len(names))
    errors = []

    def run(name):
        try:
            with Session(trace_path=tmp_path / f"{name}.jsonl") as s:
                barrier.wait(timeout=60)
                s.run_suite(benchmarks={name: programs[name]})
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=run, args=(name,))
               for name in names]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for name in names:
        records = _trace.read_trace(tmp_path / f"{name}.jsonl")
        cells = sorted(r["name"] for r in records
                       if r["name"].startswith("cell."))
        assert cells == sorted(f"cell.{s.name}" for s in schemes.columns())
        assert [r["name"] for r in records if r["depth"] == 0] \
            == ["suite.run"]
        assert {r["attrs"].get("benchmark", r["attrs"].get("program", name))
                for r in records} == {name}
        ids = {r["span_id"] for r in records}
        assert all(r["parent_id"] in ids for r in records
                   if r["parent_id"] is not None)


def test_cache_plumbing(tmp_path):
    assert Session().cache is None
    assert Session(cache=False).cache is None
    s = Session(cache=tmp_path / "store")
    assert isinstance(s.cache, ArtifactCache)
    assert s.cache.root == tmp_path / "store"
    existing = ArtifactCache(tmp_path / "other")
    assert Session(cache=existing).cache is existing


def test_repr_mentions_knobs():
    text = repr(Session(jobs=3, trace_path="t.jsonl"))
    assert "jobs=3" in text and "trace='t.jsonl'" in text

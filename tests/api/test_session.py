"""Session facade: delegation equivalence, lifecycle, cache plumbing."""

import json
import warnings

import pytest

from repro.api import Session
from repro.core import schemes
from repro.engine import ArtifactCache, CellSpec, SweepSpec, execute_cell
from repro.eval import suite_to_dict
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.workloads import benchmark_programs

SCALE = 0.01


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
    """Each cell of ``run_benchmark`` equals that cell executed alone,
    with no benchmark memo, on a payload-built program."""
    prog = benchmark_programs(SCALE)["compress"]
    with Session() as s:
        via_session = s.run_benchmark("compress", prog)
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

    cfg = CampaignConfig(budget=3, seed=0, shrink=False)
    with Session() as s:
        via_session = s.fuzz(cfg)
    legacy = run_campaign(cfg)
    assert json.dumps(via_session.summary.to_dict(), sort_keys=True) \
        == json.dumps(legacy.summary.to_dict(), sort_keys=True)


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
            s.run_benchmark("compress", prog)
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


def test_metrics_lifecycle():
    assert not _metrics.metrics_enabled()
    with Session(metrics=True):
        assert _metrics.metrics_enabled()
    assert not _metrics.metrics_enabled()


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


def test_cache_plumbing(tmp_path):
    assert Session().cache is None
    assert Session().cache_stats() is None
    s = Session(cache=tmp_path / "store")
    assert isinstance(s.cache, ArtifactCache)
    assert s.cache_stats() is not None
    existing = ArtifactCache(tmp_path / "other")
    assert Session(cache=existing).cache is existing


def test_repr_mentions_knobs():
    text = repr(Session(jobs=3, metrics=True))
    assert "jobs=3" in text and "metrics=True" in text

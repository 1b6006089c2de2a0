"""The closed-loop search: determinism, resume, winners, fleet batching.

Every test runs at tiny scale over a two-benchmark zoo so the whole file
stays in tier-1 time; the full-zoo, full-scale behavior is exercised by
``tools/bench_suite.py --skip``-gated phases and the CI ``tune`` job.
"""

import json

import pytest

from repro.engine import ArtifactCache
from repro.engine.cells import COUNTERS, execute_cell
from repro.obs import metrics as _metrics
from repro.tune import (
    ParamSpec, TuneResult, TuneSpec, apply_params, format_tune_result,
    run_tune, tune_result_key,
)
from repro.tune.evaluate import candidate_cells, evaluate_batch

SPEC = TuneSpec(
    params=(ParamSpec("classify.likely_threshold"),
            ParamSpec("speculation_bias"),
            ParamSpec("mispredict_penalty")),
    benchmarks=("compress", "grep"),
    scale=0.01, budget=6, seed=11, fidelities=(0.5, 1.0))


@pytest.fixture(autouse=True)
def _clean_metrics():
    _metrics.REGISTRY.reset()
    _metrics.metrics_disable()
    yield
    _metrics.REGISTRY.reset()
    _metrics.metrics_disable()


@pytest.fixture(scope="module")
def first_result(tmp_path_factory):
    """One cached search shared by the read-only assertions below."""
    cache = ArtifactCache(tmp_path_factory.mktemp("tune-cache"))
    result = run_tune(SPEC, cache=cache, jobs=1)
    return cache, result


# -- structure --------------------------------------------------------------

def test_default_vector_is_candidate_zero(first_result):
    _, result = first_result
    cand0 = result.candidates[0]
    assert cand0["index"] == 0
    assert cand0["origin"] == "default"
    heur, config = apply_params(cand0["params"])
    from repro.core.heuristics import DEFAULT_HEURISTICS

    assert heur == DEFAULT_HEURISTICS
    assert config == {}


def test_budget_respected(first_result):
    _, result = first_result
    assert 2 <= result.evaluations <= SPEC.budget


def test_pareto_front_nonempty_and_valid(first_result):
    _, result = first_result
    indices = {c["index"] for c in result.candidates}
    assert result.pareto
    assert set(result.pareto) <= indices


def test_winner_ipc_never_below_default(first_result):
    """Candidate 0 competes, so the per-workload winner is structurally
    at least as good as the paper's global thresholds — with bounded
    code growth (the <=5% slack of the bench gate)."""
    _, result = first_result
    assert result.per_workload  # both benchmarks finished
    for bench, w in result.per_workload.items():
        assert w["ipc"] >= w["default_ipc"], bench
        assert w["code_growth"] <= \
            w["default_code_growth"] * 1.05 + 1e-9, bench


def test_render_mentions_every_winner(first_result):
    _, result = first_result
    text = format_tune_result(result)
    for bench in result.per_workload:
        assert bench in text
    assert "Pareto front" in text


# -- serde ------------------------------------------------------------------

def test_result_roundtrip_through_json(first_result):
    _, result = first_result
    restored = TuneResult.from_dict(
        json.loads(json.dumps(result.to_dict())))
    assert restored.to_dict() == result.to_dict()


def test_result_schema_checked(first_result):
    from repro.core.serde import SchemaMismatch

    _, result = first_result
    payload = result.to_dict()
    payload["schema_version"] = 0
    with pytest.raises(SchemaMismatch):
        TuneResult.from_dict(payload)


# -- determinism + resume ---------------------------------------------------

def test_same_seed_same_budget_identical_front():
    a = run_tune(SPEC, cache=None, jobs=1)
    b = run_tune(SPEC, cache=None, jobs=1)
    assert a.pareto == b.pareto
    assert a.to_dict() == b.to_dict()


def test_different_seed_changes_candidates():
    import dataclasses

    a = run_tune(SPEC, cache=None, jobs=1)
    b = run_tune(dataclasses.replace(SPEC, seed=SPEC.seed + 1),
                 cache=None, jobs=1)
    assert [c["params"] for c in a.candidates[1:]] \
        != [c["params"] for c in b.candidates[1:]]


def test_warm_rerun_zero_compiles(first_result):
    """A resumed identical search executes nothing: the result-level
    cache answers before a single cell is keyed."""
    cache, result = first_result
    COUNTERS.reset()
    again = run_tune(SPEC, cache=cache, jobs=1)
    assert COUNTERS.compiles == 0
    assert COUNTERS.simulates == 0
    assert again.to_dict() == result.to_dict()


def test_result_key_depends_on_spec_and_backend():
    import dataclasses

    k = tune_result_key(SPEC, "reference")
    assert k != tune_result_key(SPEC, "fast")
    assert k != tune_result_key(
        dataclasses.replace(SPEC, seed=SPEC.seed + 1), "reference")
    assert k == tune_result_key(dataclasses.replace(SPEC), "reference")


def test_cell_level_resume_zero_work(tmp_path):
    """Even without the result-level entry, every cell of a repeated
    candidate evaluation is an artifact-cache hit."""
    from repro.workloads import benchmark_programs

    programs = {n: p for n, p in benchmark_programs(0.01).items()
                if n == "compress"}
    heur, overrides = apply_params({"speculation_bias": 0.7})
    cells = candidate_cells(heur, overrides, programs,
                            max_steps=50_000_000, timeout=None,
                            backend="reference")
    cache = ArtifactCache(tmp_path / "cells")
    evaluate_batch(cells, programs, cache, jobs=1)
    COUNTERS.reset()
    _, hits, executed = evaluate_batch(cells, programs, cache, jobs=1)
    assert (hits, executed) == (len(cells), 0)
    assert COUNTERS.compiles == 0 and COUNTERS.simulates == 0


def test_tune_cells_shared_with_suite_cache(tmp_path):
    """The default candidate's cell is *the same artifact* the suite
    runner computes: a tables run pre-warms the search."""
    from repro.engine.suite import run_suite
    from repro.fastsim.backend import resolve_backend
    from repro.workloads import benchmark_programs

    cache = ArtifactCache(tmp_path / "shared")
    run_suite(scale=0.01, cache=cache, jobs=1)  # pre-warm, all schemes

    programs = {n: p for n, p in benchmark_programs(0.01).items()
                if n == "compress"}
    heur, overrides = apply_params({})  # the default vector
    cells = candidate_cells(heur, overrides, programs,
                            max_steps=50_000_000, timeout=None,
                            backend=resolve_backend())
    COUNTERS.reset()
    _, hits, executed = evaluate_batch(cells, programs, cache, jobs=1)
    assert (hits, executed) == (len(cells), 0)
    assert COUNTERS.compiles == 0


# -- fleet batching ---------------------------------------------------------

def test_remote_client_routes_batches(monkeypatch):
    """With a client, each round's grid goes through one batched
    executor call instead of the local pool."""
    import repro.serve.client as serve_client

    batches = []

    def fake_remote_cell_executor(client):
        def _execute(cells):
            batches.append(len(cells))
            return {key: execute_cell(spec) for key, spec in cells}

        return _execute

    monkeypatch.setattr(serve_client, "remote_cell_executor",
                        fake_remote_cell_executor)
    result = run_tune(SPEC, cache=None, jobs=1, client=object())
    assert batches, "executor never invoked"
    assert sum(batches) == result.cells_executed
    local = run_tune(SPEC, cache=None, jobs=1)
    assert result.to_dict() == local.to_dict()


# -- observability ----------------------------------------------------------

def test_search_emits_round_metrics():
    _metrics.metrics_enable()
    run_tune(SPEC, cache=None, jobs=1)
    counters = _metrics.REGISTRY.snapshot()["counters"]
    assert counters.get("tune.rounds", 0) >= 2
    assert counters.get("tune.cells.miss", 0) > 0

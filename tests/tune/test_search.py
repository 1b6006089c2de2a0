"""The closed-loop search: determinism, resume, winners.

Most tests run at tiny scale over a two-benchmark zoo so the whole file
stays in tier-1 time.  One full-zoo search (scale 0.1, budget 24) checks
that tuning beats the paper's thresholds somewhere and resumes for free;
the CI ``tune`` job checks that a CLI search is deterministic and resumes
with zero cells, and ``tests/serve/test_remote_parity.py`` a search
through a live server.
"""

import json

import pytest

from repro.engine import CELLS, ArtifactCache, run_cached
from repro.engine.cells import COUNTERS
from repro.obs import read_trace, tracing
from repro.tune import (
    DEFAULT_PARAM_NAMES, ParamSpec, TuneResult, TuneSpec, apply_params,
    format_tune_result, run_tune, tune_result_key,
)
from repro.tune.evaluate import candidate_cells

SPEC = TuneSpec(
    params=(ParamSpec("classify.likely_threshold"),
            ParamSpec("speculation_bias"),
            ParamSpec("mispredict_penalty")),
    benchmarks=("compress", "grep"),
    scale=0.01, budget=6, seed=11, fidelities=(0.5, 1.0))


@pytest.fixture(scope="module")
def first_result(tmp_path_factory):
    """One cached search shared by the read-only assertions below."""
    cache = ArtifactCache(tmp_path_factory.mktemp("tune-cache"))
    result = run_tune(SPEC, cache=cache)
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
    code growth (the <=5% slack of ``GROWTH_SLACK``)."""
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
    # A payload written when results still named a simulator decodes to
    # the same values.
    legacy = {**result.to_dict(), "backend": "fast"}
    assert TuneResult.from_dict(legacy).to_dict() == result.to_dict()


def test_result_schema_checked(first_result):
    from repro.core.serde import SchemaMismatch

    _, result = first_result
    payload = result.to_dict()
    payload["schema_version"] = 0
    with pytest.raises(SchemaMismatch):
        TuneResult.from_dict(payload)


# -- determinism + resume ---------------------------------------------------

def test_same_seed_same_budget_identical_front():
    a = run_tune(SPEC, cache=None)
    b = run_tune(SPEC, cache=None)
    assert a.pareto == b.pareto
    assert a.to_dict() == b.to_dict()


def test_different_seed_changes_candidates():
    import dataclasses

    a = run_tune(SPEC, cache=None)
    b = run_tune(dataclasses.replace(SPEC, seed=SPEC.seed + 1),
                 cache=None)
    assert [c["params"] for c in a.candidates[1:]] \
        != [c["params"] for c in b.candidates[1:]]


def test_warm_rerun_zero_compiles(first_result):
    """A resumed identical search executes nothing: the result-level
    cache answers before a single cell is keyed."""
    cache, result = first_result
    COUNTERS.reset()
    again = run_tune(SPEC, cache=cache)
    assert COUNTERS.compiles == 0
    assert COUNTERS.simulates == 0
    assert again.to_dict() == result.to_dict()


def test_full_zoo_search_beats_the_defaults_and_resumes_for_free(tmp_path):
    """The paper's four thresholds over every stock workload: some
    workload's winner has a higher IPC than the default vector within 5%
    more code growth, and a rerun executes nothing and returns the same
    result."""
    spec = TuneSpec(params=tuple(ParamSpec(n) for n in DEFAULT_PARAM_NAMES),
                    scale=0.1, budget=24, seed=0)
    cache = ArtifactCache(tmp_path / "cache")
    result = run_tune(spec, cache=cache)
    improved = [
        bench for bench, w in result.per_workload.items()
        if w["ipc"] > w["default_ipc"] and 100.0 * (
            w["code_growth"] / w["default_code_growth"] - 1.0) <= 5.0]
    assert improved, result.per_workload

    COUNTERS.reset()
    resumed = run_tune(spec, cache=cache)
    assert (COUNTERS.compiles, COUNTERS.simulates) == (0, 0)
    assert resumed.to_dict() == result.to_dict()


def test_failed_search_is_not_stored(tmp_path, monkeypatch):
    """A search whose cells failed answers no later search: a failure can
    be transient (here a simulator fault that clears), so a stored one
    would poison every rerun."""
    from repro.engine import cells as engine_cells

    def broken(*args, **kwargs):
        raise RuntimeError("simulator down")

    cache = ArtifactCache(tmp_path / "cache")
    with monkeypatch.context() as patch:
        patch.setattr(engine_cells, "counted_simulate", broken)
        failed = run_tune(SPEC, cache=cache)
    assert failed.per_workload == {}

    again = run_tune(SPEC, cache=cache)
    assert again.cells_executed > 0
    assert sorted(again.per_workload) == sorted(SPEC.benchmarks)


def test_result_key_depends_on_spec():
    import dataclasses

    k = tune_result_key(SPEC)
    assert k != tune_result_key(dataclasses.replace(SPEC, seed=SPEC.seed + 1))
    assert k == tune_result_key(dataclasses.replace(SPEC))


def test_cell_level_resume_zero_work(tmp_path):
    """Even without the result-level entry, every cell of a repeated
    candidate evaluation is an artifact-cache hit."""
    from repro.workloads import benchmark_programs

    programs = {n: p for n, p in benchmark_programs(0.01).items()
                if n == "compress"}
    heur, overrides = apply_params({"speculation_bias": 0.7})
    cells = candidate_cells(heur, overrides, programs, max_steps=50_000_000)
    cache = ArtifactCache(tmp_path / "cells")
    batch = [(key, spec) for _, key, spec in cells]
    run_cached(CELLS, batch, store=cache, programs=programs)
    COUNTERS.reset()
    _, hits, executed = run_cached(CELLS, batch, store=cache,
                                   programs=programs)
    assert (hits, executed) == (len(cells), 0)
    assert COUNTERS.compiles == 0 and COUNTERS.simulates == 0


def test_tune_cells_shared_with_suite_cache(tmp_path):
    """The default candidate's cell is *the same artifact* the suite
    runner computes: a tables run pre-warms the search."""
    from repro.engine.suite import run_suite
    from repro.workloads import benchmark_programs

    cache = ArtifactCache(tmp_path / "shared")
    run_suite(scale=0.01, cache=cache)  # pre-warm, all schemes

    programs = {n: p for n, p in benchmark_programs(0.01).items()
                if n == "compress"}
    heur, overrides = apply_params({})  # the default vector
    cells = candidate_cells(heur, overrides, programs, max_steps=50_000_000)
    COUNTERS.reset()
    _, hits, executed = run_cached(
        CELLS, [(key, spec) for _, key, spec in cells], store=cache,
        programs=programs)
    assert (hits, executed) == (len(cells), 0)
    assert COUNTERS.compiles == 0


# -- observability ----------------------------------------------------------

def test_search_emits_round_metrics(tmp_path):
    """Each round's span carries its cell traffic and best IPC."""
    path = tmp_path / "tune.jsonl"
    with tracing(path):
        run_tune(SPEC, cache=None)
    rounds = [r["attrs"] for r in read_trace(path)
              if r["name"] == "tune.round"]
    assert len(rounds) >= 2
    assert sum(a["cells_executed"] for a in rounds) > 0
    assert all(a["cells_hit"] == 0 for a in rounds)
    assert all(a["best_ipc"] > 0 for a in rounds)

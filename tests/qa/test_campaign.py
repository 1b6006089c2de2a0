"""Campaign runner: determinism, caching, and miscompile detection."""

import random

import pytest

from repro.qa import cells
from repro.qa.campaign import CampaignConfig, run_campaign
from repro.qa.corpus import load_reproducer, replay_corpus
from repro.robust.faults import inject_program_fault

FAST_STEPS = 400_000


def _cfg(**kw):
    base = dict(budget=3, seed=0, shrink=False,
                strategies=["diamonds"], max_steps=FAST_STEPS, cache=None)
    base.update(kw)
    return CampaignConfig(**base)


def test_clean_campaign_is_deterministic():
    a = run_campaign(_cfg())
    b = run_campaign(_cfg())
    assert a.summary.clean
    assert a.summary.to_dict() == b.summary.to_dict()
    assert a.summary.programs == 3
    assert "CLEAN" in a.summary.format()
    assert a.entries == []


def test_warm_cache_skips_execution(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    cold = run_campaign(_cfg(cache=str(cache_dir)))

    def boom(spec):
        raise AssertionError("cell executed despite warm cache")

    monkeypatch.setattr(cells, "execute_fuzz_cell", boom)
    warm = run_campaign(_cfg(cache=str(cache_dir)))
    assert warm.summary.to_dict() == cold.summary.to_dict()


def _corrupting_compile(real):
    """Wrap compile_scheme so the 'combined' scheme silently miscompiles."""
    def wrapper(prog, scheme, *, profile=None, max_steps=cells.FUZZ_MAX_STEPS):
        result = real(prog, scheme, profile=profile, max_steps=max_steps)
        if scheme == "combined":
            for bad in inject_program_fault(
                    "clobbered-register", result.program, random.Random(0)):
                result.program = bad
                break
        return result
    return wrapper


def test_campaign_catches_injected_miscompile(tmp_path, monkeypatch):
    monkeypatch.setattr(cells, "compile_scheme",
                        _corrupting_compile(cells.compile_scheme))
    corpus = tmp_path / "corpus"
    result = run_campaign(_cfg(budget=3, shrink=True, oracle_budget=80,
                               corpus_dir=str(corpus)))
    summary = result.summary

    assert not summary.clean
    assert summary.divergences >= 1
    assert summary.cell_errors == 0
    # Only the corrupted scheme diverges; triage attributes it correctly.
    for entry in result.entries:
        assert entry.scheme == "combined"
        assert entry.kind in ("mem-mismatch", "reg-mismatch",
                              "halt-mismatch", "timeout", "crash")
        assert entry.bucket in summary.buckets
        assert entry.program_text
        assert entry.shrink is not None
        assert entry.shrink["shrunk_len"] <= entry.shrink["original_len"]
    assert "DIVERGENT" in summary.format()

    # Reproducers landed in bucketed directories and still parse.
    files = sorted(corpus.rglob("*.s"))
    assert len(files) == summary.divergences
    for f in files:
        prog = load_reproducer(f)
        prog.validate()
        assert f.with_suffix(".json").is_file()

    # Replay (against the still-corrupted compiler) reproduces the bug.
    records = replay_corpus(corpus, max_steps=FAST_STEPS)
    assert len(records) == len(files)
    assert any(r["divergent"] for r in records)


def test_campaign_buckets_cell_errors(monkeypatch):
    def broken(spec):
        raise KeyError("generator exploded")

    # execute_fuzz_cell contains its own crashes, so break one level in.
    monkeypatch.setattr(cells, "check_program", broken)
    result = run_campaign(_cfg(budget=2))
    assert result.summary.cell_errors == 2
    assert not result.summary.clean
    assert all(e.kind == "cell-error" for e in result.entries)
    assert any(b.startswith("harness--cell-error")
               for b in result.summary.buckets)


def test_cell_errors_are_not_cached(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("generator exploded")

    cache_dir = tmp_path / "cache"
    with monkeypatch.context() as m:
        m.setattr(cells, "check_program", broken)
        failed = run_campaign(_cfg(budget=2, cache=str(cache_dir)))
    assert failed.summary.cell_errors == 2
    # The fixed tooling reruns both cells instead of replaying the errors.
    again = run_campaign(_cfg(budget=2, cache=str(cache_dir)))
    assert again.summary.clean and again.summary.cell_errors == 0


def test_campaign_progress_messages():
    seen = []
    run_campaign(_cfg(budget=2), progress=seen.append)
    assert any("2 cells" in m for m in seen)


def test_replay_missing_corpus_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        replay_corpus(tmp_path / "nope")

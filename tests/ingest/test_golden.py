"""Golden-file conformance for the import path (the ISSUE 10 contract).

Every fixture under ``fixtures/`` carries two committed goldens:

* ``<stem>.golden.s``   — the lowered program, byte-exact;
* ``<stem>.stats.json`` — the stats of every table column
  (:func:`repro.core.schemes.columns`), byte-exact on BOTH execution
  backends (reference == fast == committed).

The suite runs from a cold cache (the suite-wide ``REPRO_CACHE_DIR``
fixture points at an empty temp dir, and nothing here passes a cache),
so a pass means the whole parse → lower → verify → profile → compile →
simulate chain reproduces the committed bytes from scratch.  Refresh
after an intentional change with::

    python -m repro ingest tests/ingest/fixtures --update-goldens
"""

import json
from pathlib import Path

import pytest

from repro.ingest import (expand_fixtures, golden_path, import_path,
                          lowered_text, stats_path, stats_text)
from repro.ingest.golden import STATS_MAX_STEPS

FIXTURES = Path(__file__).parent / "fixtures"
GOOD = expand_fixtures([FIXTURES])
IDS = [p.name for p in GOOD]


def test_corpus_meets_issue_floor():
    # ISSUE 10: >= 6 sources and >= 3 traces (incl. one malformed case).
    sources = list(FIXTURES.glob("*.bril"))
    traces = list(FIXTURES.glob("*.trace.jsonl"))
    assert len([s for s in sources if not s.name.startswith("bad_")]) >= 6
    assert len(traces) >= 3
    assert any(t.name.startswith("bad_") for t in traces)
    assert len(GOOD) >= 8
    for f in GOOD:  # every good fixture has both goldens committed
        assert golden_path(f).exists(), f"missing {golden_path(f)}"
        assert stats_path(f).exists(), f"missing {stats_path(f)}"


@pytest.mark.parametrize("fixture", GOOD, ids=IDS)
def test_lowered_golden_byte_exact(fixture):
    assert lowered_text(fixture) == golden_path(fixture).read_text()


@pytest.mark.parametrize("fixture", GOOD, ids=IDS)
@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_stats_golden_byte_exact_on_both_backends(fixture, backend):
    prog = import_path(fixture)
    got = stats_text(prog, backend=backend, max_steps=STATS_MAX_STEPS)
    assert got == stats_path(fixture).read_text(), (
        f"{stats_path(fixture).name} drifted on the {backend} backend")


@pytest.mark.parametrize("fixture", GOOD, ids=IDS)
def test_stats_golden_covers_all_six_schemes(fixture):
    from repro.core.schemes import columns

    payload = json.loads(stats_path(fixture).read_text())
    assert sorted(payload["schemes"]) == sorted(s.name for s in columns())


def test_some_fixture_melds():
    # Otherwise the melded column of every imported workload would
    # measure plain Proposed.
    from repro.core.schemes import compile_scheme

    melds = {f.name: compile_scheme(import_path(f), "melded",
                                    max_steps=50_000_000).melds_applied
             for f in GOOD if f.suffix == ".bril"}
    assert any(melds.values()), melds


def test_import_is_deterministic():
    # Same bytes -> same Program dict (the engine cache fingerprint).
    f = FIXTURES / "gcd.bril"
    assert import_path(f).to_dict() == import_path(f).to_dict()


def test_content_hash_isolates_cache_cells(tmp_path):
    # Two byte-different files with the same function name get distinct
    # program names, hence distinct engine cache keys: an import can
    # never poison another import's (or a synthetic benchmark's) cells.
    from repro.core.heuristics import DEFAULT_HEURISTICS
    from repro.engine.keys import cell_key
    from repro.sim.config import r10k_config

    a = tmp_path / "a.bril"
    b = tmp_path / "b.bril"
    a.write_text("@main {\n.e:\n  x: int = const 1;\n  print x;\n"
                 "  ret;\n}\n")
    b.write_text("@main {\n.e:\n  x: int = const 2;\n  print x;\n"
                 "  ret;\n}\n")
    pa, pb = import_path(a), import_path(b)
    assert pa.name != pb.name
    cfg = r10k_config("twobit")
    ka = cell_key(pa, "Proposed", DEFAULT_HEURISTICS, cfg, 1000)
    kb = cell_key(pb, "Proposed", DEFAULT_HEURISTICS, cfg, 1000)
    assert ka != kb

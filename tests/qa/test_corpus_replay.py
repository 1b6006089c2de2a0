"""Replay the checked-in regression corpus through every scheme.

Each ``.s`` file under ``tests/qa/corpus/`` is a named, minimized program
that once exercised a risky transformation pattern.  A fixed bug staying
fixed means every program still compiles equivalently under all schemes.
"""

from pathlib import Path

import pytest

from repro.core.schemes import fuzz_plan
from repro.qa.corpus import iter_corpus, load_reproducer, replay_corpus

CORPUS = Path(__file__).parent / "corpus"
NAMES = sorted(p.stem for p, _ in iter_corpus(CORPUS))


def test_corpus_is_populated():
    assert len(NAMES) >= 10


@pytest.mark.parametrize("name", NAMES)
def test_reproducer_parses_and_validates(name):
    prog = load_reproducer(CORPUS / f"{name}.s")
    prog.validate()
    assert len(prog) <= 40, "regression corpus entries stay minimal"


def test_replay_corpus_all_schemes_clean():
    records = replay_corpus(CORPUS, max_steps=400_000)
    assert sorted(r["name"] for r in records) == NAMES
    for r in records:
        assert r["error"] is None, (r["name"], r["error"])
        assert r["divergent"] == [], (r["name"], r["divergent"])
        assert set(r["schemes"]) == {s.name for s in fuzz_plan()}

"""One production simulator: nothing left chooses between the two.

Every cell, profile and CLI simulation runs on :mod:`repro.fastsim`; the
reference simulators of :mod:`repro.sim` are the oracle the conformance
suite checks it against.  These tests pin that:

* no flag, environment variable, option, spec field or wire field
  selects a simulator, and a cell that names none runs on the fast path
  (the reference never runs, and the fallback trail stays empty);
* cell keys hash only the program, scheme, heuristics, machine and step
  budget (see ``tests/engine/test_warm_replay.py``), with the meld knobs
  keyed like every other heuristic;
* the version numbers moved as recorded (engine key schema 5, serde
  payload schema 4 and serve protocol 3 together for the melded scheme;
  the key schema alone to 6 for the speculation fix, which changed
  cached fuzz verdicts but no payload shape or wire field; the protocol
  alone to 4 when cell specs dropped ``kind`` and ``predictor``, and to
  5 when they dropped ``backend``).
"""

import json

import pytest

from repro.api import Session
from repro.core import schemes, serde
from repro.core.heuristics import DEFAULT_HEURISTICS
from repro.engine import CELLS, LocalExecutor
from repro.engine.cells import CellSpec, execute_cell
from repro.engine.keys import SCHEMA_VERSION, cell_key
from repro.fastsim.backend import (clear_fallback_trail, fallback_trail,
                                   resolve_backend)
from repro.serve.client import suite_cells
from repro.serve.protocol import (PROTOCOL_VERSION, cellspec_from_payload,
                                  cellspec_to_payload)
from repro.sim.config import r10k_config
from repro.sim.pipeline import TimingSim
from repro.workloads import benchmark_programs


@pytest.fixture(scope="module")
def prog():
    return benchmark_programs(scale=0.05)["compress"]


def test_version_lockstep():
    # The melded scheme bumped all three in the same change; a future
    # bump of one without the others reopens the poisoning hole.  The
    # key schema alone moved to 6 when the speculation fix changed cached
    # fuzz verdicts: payload shapes and the wire stayed as they were.
    # The protocol alone moved to 4 when cell specs stopped carrying
    # ``kind`` and ``predictor`` (both follow from the scheme), and to 5
    # when they stopped carrying ``backend``: a peer that still sends it
    # also hashes it into its keys, so it is refused as a protocol
    # mismatch.  Dropping ``backend`` (and the unused ``extra``) changed
    # every cell key's hashed text, so the key schema did not move.  The
    # protocol alone moved to 6 when cell specs stopped carrying
    # ``timeout``: a v5 peer may send one this side would silently ignore.
    # Keys never hashed it, so keys and payloads stayed byte-identical.
    assert SCHEMA_VERSION == 6      # engine cell-key/envelope schema
    assert serde.SCHEMA_VERSION == 4  # result payload schema
    assert PROTOCOL_VERSION == 6    # serve wire protocol


def test_legacy_heuristics_payload_still_decodes():
    # A pre-melding client never sent the meld knobs; the codec must
    # decode such payloads with the defaults (meld off) instead of
    # rejecting them — only *unknown* fields are protocol errors.
    from repro.serve.protocol import heur_from_payload, heur_to_payload

    payload = heur_to_payload(DEFAULT_HEURISTICS)
    del payload["enable_meld"]
    del payload["meld_max_arm_ops"]
    decoded = heur_from_payload(payload)
    assert decoded.enable_meld is False
    assert decoded.meld_max_arm_ops == \
        DEFAULT_HEURISTICS.meld_max_arm_ops
    assert decoded == DEFAULT_HEURISTICS


def test_meld_knobs_change_cell_keys(prog):
    # enable_meld is a compile-changing knob: it must key distinctly so
    # melded cells can never alias Proposed cells.
    from dataclasses import replace

    cfg = r10k_config("twobit")
    base = cell_key(prog, "Proposed", DEFAULT_HEURISTICS, cfg, 1000)
    meld = cell_key(prog, "Proposed",
                    replace(DEFAULT_HEURISTICS, enable_meld=True),
                    cfg, 1000)
    assert base != meld


@pytest.mark.parametrize("command", [
    ["tables"], ["sweep"], ["tune"], ["verify", "grep"],
    ["submit", "--remote", "http://127.0.0.1:9"], ["profile", "grep"],
    ["run", "grep"]])
def test_backend_flag_is_gone(command, capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--backend", "fast"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --backend" in capsys.readouterr().err


def test_no_option_field_or_wire_field_names_a_simulator(prog,
                                                         monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "reference")
    assert resolve_backend() == "fast"
    assert "backend" not in CellSpec.__dataclass_fields__
    with pytest.raises(TypeError):
        Session(backend="reference")
    spec = CellSpec(benchmark="compress", scheme="2bitBP",
                    program=prog.to_dict())
    payload = cellspec_to_payload(spec)
    assert "backend" not in payload
    assert cellspec_from_payload(json.loads(json.dumps(payload))) == spec


def test_unnamed_cells_run_on_the_fast_path(monkeypatch):
    """A cell that names no simulator never reaches the reference cycle
    loop, through ``execute_cell``, a ``suite_cells`` grid on the local
    executor, or a session started with ``$REPRO_BACKEND=reference``."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("the reference TimingSim ran")

    monkeypatch.setattr(TimingSim, "run", refuse)
    monkeypatch.setenv("REPRO_BACKEND", "reference")
    programs = {"grep": benchmark_programs(0.02)["grep"]}
    payload = programs["grep"].to_dict()
    clear_fallback_trail()

    alone = [execute_cell(CellSpec(benchmark="grep", scheme=s.name,
                                   program=payload))
             for s in schemes.columns()]
    grid = suite_cells(programs, DEFAULT_HEURISTICS, None, 50_000_000)
    pooled = LocalExecutor().run(
        CELLS, [(key, spec) for _, _, key, spec, _ in grid])
    session = Session().run_suite(benchmarks=programs)["grep"]
    for cells in (alone, pooled, list(session.results.values())):
        assert len(cells) == len(schemes.columns())
        assert [c.failure for c in cells] == [None] * len(cells)
    assert fallback_trail() == ()

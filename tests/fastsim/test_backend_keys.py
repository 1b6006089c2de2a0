"""Backend identity in cache keys and on the wire (ISSUE 8 fix).

Before the execution-backend layer existed, a cell's cache key and its
serve payload identified only (program, scheme, heuristics, config,
budget).  A fast-backend run would therefore have *shared cache lines*
with reference runs — a fastsim bug could poison reference results, and
a service worker could silently execute a cell on the wrong backend.
These tests pin the fix:

* engine cell keys carry the backend (distinct keys per backend,
  reference unchanged semantics via the default),
* the serve protocol round-trips the backend and decodes legacy
  payloads (no ``backend`` field) as ``"reference"``,
* the three version numbers moved in lockstep (engine key schema 5,
  serde payload schema 4, serve protocol 3 since the melded scheme),
* while the *payloads* under the distinct keys stay byte-identical —
  distinct keys are a safety property, not a result difference.
"""

import json

import pytest

from repro.core.heuristics import DEFAULT_HEURISTICS
from repro.core import serde
from repro.engine.cells import CellSpec
from repro.engine.keys import SCHEMA_VERSION, cell_key
from repro.fastsim.backend import resolve_backend
from repro.serve.protocol import (PROTOCOL_VERSION, cellspec_from_payload,
                                  cellspec_to_payload)
from repro.sim.config import r10k_config
from repro.workloads import benchmark_programs


@pytest.fixture(scope="module")
def prog():
    return benchmark_programs(scale=0.05)["compress"]


def test_cell_keys_distinct_per_backend(prog):
    cfg = r10k_config("twobit")
    ref = cell_key(prog, "Proposed", DEFAULT_HEURISTICS, cfg, 1000)
    fast = cell_key(prog, "Proposed", DEFAULT_HEURISTICS, cfg, 1000,
                    backend="fast")
    explicit_ref = cell_key(prog, "Proposed", DEFAULT_HEURISTICS, cfg,
                            1000, backend="reference")
    assert ref != fast
    assert ref == explicit_ref  # default is spelled "reference"


def test_version_lockstep():
    # The melded scheme (ISSUE 10) bumped all three in the same change,
    # exactly as the backend layer (ISSUE 8) did before it; a future bump
    # of one without the others reopens the poisoning hole.
    assert SCHEMA_VERSION == 5      # engine cell-key/envelope schema
    assert serde.SCHEMA_VERSION == 4  # result payload schema
    assert PROTOCOL_VERSION == 3    # serve wire protocol


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


def test_protocol_round_trips_backend(prog):
    spec = CellSpec(benchmark="compress", scheme="2bitBP", kind="base",
                    predictor="twobit", program=prog.to_dict(),
                    backend="fast")
    payload = cellspec_to_payload(spec)
    assert payload["backend"] == "fast"
    assert json.loads(json.dumps(payload)) == payload
    back = cellspec_from_payload(json.loads(json.dumps(payload)))
    assert back.backend == "fast"
    assert back == spec


def test_protocol_decodes_legacy_payload_as_reference(prog):
    spec = CellSpec(benchmark="compress", scheme="2bitBP", kind="base",
                    predictor="twobit", program=prog.to_dict())
    payload = cellspec_to_payload(spec)
    del payload["backend"]  # a v1 client never sent the field
    assert cellspec_from_payload(payload).backend == "reference"


def test_resolve_backend_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend(None) == "fast"
    assert resolve_backend("reference") == "reference"
    monkeypatch.setenv("REPRO_BACKEND", "reference")
    assert resolve_backend(None) == "reference"
    assert resolve_backend("fast") == "fast"  # arg beats env
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("warp")
    monkeypatch.setenv("REPRO_BACKEND", "warp")
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend(None)

"""Wire-protocol codecs: exact round-trips and shape validation."""

import dataclasses
from dataclasses import replace

import pytest

from repro.core.heuristics import DEFAULT_HEURISTICS
from repro.engine.cells import CellSpec, overrides_as_items
from repro.engine.keys import cell_key
from repro.profilefb.classify import ClassifyConfig
from repro.serve import protocol
from repro.workloads import benchmark_programs


def test_heur_round_trip_is_exact():
    heur = replace(DEFAULT_HEURISTICS,
                   speculation_bias=0.71,
                   spectre_untrusted=("r4", "r9"),
                   classify=ClassifyConfig(likely_threshold=0.93))
    back = protocol.heur_from_payload(protocol.heur_to_payload(heur))
    assert back == heur
    assert isinstance(back.spectre_untrusted, tuple)
    assert isinstance(back.classify, ClassifyConfig)


def test_heur_unknown_field_rejected():
    payload = protocol.heur_to_payload(DEFAULT_HEURISTICS)
    payload["from_the_future"] = 1
    with pytest.raises(protocol.ProtocolError):
        protocol.heur_from_payload(payload)


def test_cellspec_round_trip_preserves_cell_key():
    prog = benchmark_programs(0.02, seed=5)["compress"]
    spec = CellSpec(
        benchmark="compress", scheme="Proposed", program=prog.to_dict(),
        heur=DEFAULT_HEURISTICS,
        config_overrides=overrides_as_items({"fetch_width": 8}),
        max_steps=100_000)
    decoded = protocol.cellspec_from_payload(
        protocol.cellspec_to_payload(spec))
    assert decoded == spec
    # The dedup invariant: a key computed from the decoded spec equals
    # the submitter's key.
    key = cell_key(prog, "Proposed", DEFAULT_HEURISTICS,
                   spec.resolve_config(), 100_000)
    assert cell_key(prog, "Proposed", decoded.heur,
                    decoded.resolve_config(), 100_000) == key


def test_cellspec_malformed_payload_raises():
    with pytest.raises(protocol.ProtocolError):
        protocol.cellspec_from_payload({"benchmark": "x"})


@pytest.mark.parametrize("scheme", ["no-such-scheme", "combined"])
def test_cellspec_refuses_schemes_that_are_not_table_columns(scheme):
    prog = benchmark_programs(0.02, seed=5)["compress"]
    payload = protocol.cellspec_to_payload(CellSpec(
        benchmark="compress", scheme="Proposed", program=prog.to_dict()))
    assert "kind" not in payload and "predictor" not in payload
    with pytest.raises(protocol.ProtocolError, match=scheme):
        protocol.cellspec_from_payload({**payload, "scheme": scheme})


def test_check_keys_names_the_first_mismatch():
    from repro.qa.cells import FuzzCellSpec, fuzz_cell_key

    specs = [FuzzCellSpec("diamonds", seed) for seed in (1, 2)]
    cells = [{"key": fuzz_cell_key(s), "spec": dataclasses.asdict(s)}
             for s in specs]
    protocol.check_keys("fuzz", cells)
    cells[1]["key"] = cells[0]["key"]
    with pytest.raises(protocol.ProtocolError, match="cell 1: key"):
        protocol.check_keys("fuzz", cells)
    with pytest.raises(protocol.ProtocolError, match="cell 0: malformed"):
        protocol.check_keys("fuzz", [{"key": "a" * 64, "spec": {}}])


def test_validate_submission_happy_path():
    body = {"protocol": protocol.PROTOCOL_VERSION, "tenant": "alice",
            "kind": "fuzz", "cells": [{"key": "a" * 64, "spec": {}}]}
    assert protocol.validate_submission(body) == \
        ("alice", "fuzz", [{"key": "a" * 64, "spec": {}}])


@pytest.mark.parametrize("mutate", [
    lambda b: b.update(protocol=99),
    lambda b: b.pop("tenant"),
    lambda b: b.update(kind="nope"),
    lambda b: b.update(cells=[]),
    lambda b: b.update(cells=[{"key": "short", "spec": {}}]),
    lambda b: b.update(cells=[{"spec": {}}]),
])
def test_validate_submission_rejects_bad_shapes(mutate):
    body = {"protocol": protocol.PROTOCOL_VERSION, "tenant": "alice",
            "kind": "cells", "cells": [{"key": "a" * 64, "spec": {}}]}
    mutate(body)
    with pytest.raises(protocol.ProtocolError):
        protocol.validate_submission(body)


def test_error_body_is_structured():
    body = protocol.error_body("rate_limited", "slow down",
                               retry_after_s=1.5, tenant="alice")
    assert body["protocol"] == protocol.PROTOCOL_VERSION
    assert body["error"]["code"] == "rate_limited"
    assert body["error"]["retry_after_s"] == 1.5
    with pytest.raises(ValueError):
        protocol.error_body("made_up_code", "x")


def test_check_protocol_rejects_mismatch():
    with pytest.raises(protocol.ProtocolError):
        protocol.check_protocol({"protocol": 0}, "test")

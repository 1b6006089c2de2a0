"""Tracing spans: nesting, JSONL round-trip, null-span fast path."""

import io
import json

import pytest

from repro.obs.trace import (
    NULL_SPAN, TRACE_SCHEMA_VERSION, Tracer, active_tracer, install,
    read_trace, span, tracing, uninstall,
)


def test_span_without_tracer_is_null_span():
    assert span("anything") is NULL_SPAN
    # and the null span is a working no-op context manager
    with span("anything", key=1) as sp:
        sp.set("more", 2)


def test_nesting_parent_ids_and_depth():
    sink = io.StringIO()
    with tracing(sink):
        with span("outer"):
            with span("inner"):
                with span("leaf"):
                    pass
            with span("sibling"):
                pass
    records = {r["name"]: r for r in read_trace(io.StringIO(sink.getvalue()))}
    assert records["outer"]["depth"] == 0
    assert records["outer"]["parent_id"] is None
    assert records["inner"]["parent_id"] == records["outer"]["span_id"]
    assert records["inner"]["depth"] == 1
    assert records["leaf"]["parent_id"] == records["inner"]["span_id"]
    assert records["leaf"]["depth"] == 2
    assert records["sibling"]["parent_id"] == records["outer"]["span_id"]


def test_emission_order_is_completion_order():
    sink = io.StringIO()
    with tracing(sink):
        with span("outer"):
            with span("inner"):
                pass
    names = [r["name"] for r in read_trace(io.StringIO(sink.getvalue()))]
    assert names == ["inner", "outer"]  # children close first


def test_jsonl_round_trip_via_file(tmp_path):
    path = tmp_path / "t.jsonl"
    with tracing(path):
        with span("work", program="compress") as sp:
            sp.set("cells", 3)
    records = read_trace(path)
    assert len(records) == 1
    rec = records[0]
    assert rec["v"] == TRACE_SCHEMA_VERSION
    assert rec["name"] == "work"
    assert rec["attrs"] == {"program": "compress", "cells": 3}
    assert rec["dur_ns"] >= 0
    assert rec["start_ns"] >= 0


def test_exception_recorded_and_propagated():
    sink = io.StringIO()
    with tracing(sink):
        with pytest.raises(KeyError):
            with span("failing"):
                raise KeyError("boom")
    rec = read_trace(io.StringIO(sink.getvalue()))[0]
    assert rec["attrs"]["error"] == "KeyError"


def test_install_uninstall_lifecycle(tmp_path):
    path = tmp_path / "t.jsonl"
    tracer = Tracer(path)
    install(tracer)
    try:
        assert active_tracer() is tracer
        with span("one"):
            pass
    finally:
        uninstall()
        tracer.close()
    assert active_tracer() is None
    assert [r["name"] for r in read_trace(path)] == ["one"]


def test_read_trace_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json at all\n")
    with pytest.raises(ValueError, match="line 1"):
        read_trace(path)


def test_read_trace_rejects_wrong_schema_version(tmp_path):
    rec = {"v": TRACE_SCHEMA_VERSION + 1, "name": "x", "span_id": 1,
           "parent_id": None, "depth": 0, "start_ns": 0, "dur_ns": 1,
           "attrs": {}}
    path = tmp_path / "stale.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ValueError, match="schema version"):
        read_trace(path)


def test_read_trace_skips_blank_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    with tracing(path):
        with span("a"):
            pass
    path.write_text(path.read_text() + "\n\n")
    assert len(read_trace(path)) == 1

"""Wire protocol of the evaluation service: JSON envelopes and codecs.

Everything that crosses the HTTP boundary is plain JSON with an explicit
``protocol`` version, mirroring the schema-version discipline of
:mod:`repro.core.serde`: a client and server from different generations
fail loudly instead of silently mis-decoding each other's payloads.

Two codecs do the heavy lifting:

* :func:`cellspec_to_payload` / :func:`cellspec_from_payload` — an
  evaluation :class:`~repro.engine.cells.CellSpec` as JSON.  The program
  already travels as a plain dict; the heuristics dataclass (with its
  nested :class:`~repro.profilefb.classify.ClassifyConfig` and tuple
  fields) round-trips through :func:`heur_to_payload` /
  :func:`heur_from_payload`.  The round-trip is exact, so a cell key
  computed from the decoded spec equals the submitter's key — the
  property the queue's fleet-wide dedup rests on, and which
  :func:`check_keys` enforces on every submission.
* :func:`error_body` — structured errors.  Backpressure is data, not
  prose: a rate-limited tenant receives ``{"error": {"code":
  "rate_limited", "retry_after_s": ...}}`` and can schedule its retry
  without parsing a message string.

Job kinds: ``"cells"`` (evaluation cells, :mod:`repro.engine.cells`) and
``"fuzz"`` (differential fuzz cells, :mod:`repro.qa.cells`).  Both are
content-addressed: a job is a list of ``{"key", "spec"}`` pairs where
``key`` is the cell's cache key and ``spec`` its executable description
(:func:`spec_to_payload` / :func:`spec_from_payload`); :func:`cell_kind`
maps it to the :class:`~repro.engine.pool.CellKind` that executes it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from ..core.heuristics import FeedbackHeuristics
from ..engine.cells import CellSpec
from ..profilefb.classify import ClassifyConfig

#: Version of the HTTP/JSON wire protocol.  Bump on any change to the
#: request/response shapes; mismatched peers refuse each other.
#: v2: cell-spec payloads carry the execution backend (repro.fastsim;
#: engine keys v4, result serde v3 — bumped in lockstep).
#: v3: the melded scheme — heuristics payloads may carry the meld knobs
#: and cell specs the ``"meld"`` kind (engine keys v5, result serde v4;
#: legacy heuristics payloads without the knobs still decode, taking the
#: defaults).
#: v4: cell specs carry no ``kind`` or ``predictor``: both follow from the
#: scheme (repro.core.schemes), and a scheme that is not a table column
#: is refused.  Keys and payloads are unchanged.
#: v5: cell specs carry no ``backend``: every cell runs on the fast path,
#: and cell keys no longer hash a simulator name, so a v4 peer (whose
#: specs and keys carry it) is refused rather than sent mismatched keys.
#: v6: cell specs carry no ``timeout``: the step budget is a cell's one
#: bound, so a v5 peer (which may send a wall-clock timeout this side
#: would silently ignore) is refused.  Keys and payloads are unchanged.
PROTOCOL_VERSION = 6

#: Accepted ``kind`` values of a submitted job.
JOB_KINDS = ("cells", "fuzz")

#: Machine-readable error codes carried in :func:`error_body` envelopes.
ERROR_CODES = (
    "rate_limited", "bad_request", "not_found", "protocol_mismatch",
    "shutting_down",
)


class ProtocolError(ValueError):
    """A payload violated the wire protocol (shape or version)."""


def error_body(code: str, message: str, **details: Any) -> dict:
    """A structured error envelope (``code`` is machine-readable)."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    return {"protocol": PROTOCOL_VERSION,
            "error": {"code": code, "message": message, **details}}


def ok_body(**fields: Any) -> dict:
    """A successful response envelope carrying *fields*."""
    return {"protocol": PROTOCOL_VERSION, **fields}


def check_protocol(body: dict, context: str) -> dict:
    """Validate a peer's envelope version; returns *body* for chaining."""
    got = body.get("protocol")
    if got != PROTOCOL_VERSION:
        raise ProtocolError(
            f"{context}: peer speaks protocol {got!r}, "
            f"this side speaks {PROTOCOL_VERSION}")
    return body


# -- heuristics codec ------------------------------------------------------

def heur_to_payload(heur: FeedbackHeuristics) -> dict:
    """JSON form of a :class:`FeedbackHeuristics` (nested + tuples)."""
    out: dict[str, Any] = {}
    for f in dataclasses.fields(heur):
        value = getattr(heur, f.name)
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            value = dataclasses.asdict(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def heur_from_payload(payload: dict) -> FeedbackHeuristics:
    """Inverse of :func:`heur_to_payload` — an *exact* round-trip.

    Unknown fields raise (a newer peer must not be silently truncated
    into different-keyed cells); missing fields take their defaults so
    the codec tolerates sparse payloads from hand-written clients.
    """
    known = {f.name: f for f in dataclasses.fields(FeedbackHeuristics)}
    unknown = set(payload) - set(known)
    if unknown:
        raise ProtocolError(f"unknown heuristics fields {sorted(unknown)}")
    kwargs: dict[str, Any] = {}
    for name, value in payload.items():
        if name == "classify":
            value = ClassifyConfig(**value)
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    return FeedbackHeuristics(**kwargs)


# -- cell-spec codec -------------------------------------------------------

def cellspec_to_payload(spec: CellSpec) -> dict:
    """JSON form of one evaluation :class:`CellSpec`."""
    return {
        "benchmark": spec.benchmark,
        "scheme": spec.scheme,
        "program": spec.program,
        "heur": heur_to_payload(spec.heur),
        "config_overrides": [list(pair) for pair in spec.config_overrides],
        "max_steps": spec.max_steps,
        "strict": spec.strict,
    }


def cellspec_from_payload(payload: dict) -> CellSpec:
    """Inverse of :func:`cellspec_to_payload` (shape- and scheme-checked)."""
    try:
        return CellSpec(
            benchmark=payload["benchmark"],
            scheme=payload["scheme"],
            program=payload["program"],
            heur=heur_from_payload(payload["heur"]),
            config_overrides=tuple(
                tuple(pair) for pair in payload["config_overrides"]),
            max_steps=payload["max_steps"],
            strict=bool(payload.get("strict", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed cell spec: {exc}") from exc


def spec_to_payload(kind: str, spec) -> dict:
    """JSON form of one spec of job *kind*."""
    if kind == "fuzz":
        return dataclasses.asdict(spec)
    return cellspec_to_payload(spec)


def spec_from_payload(kind: str, payload: dict):
    """Inverse of :func:`spec_to_payload`."""
    if kind == "fuzz":
        from ..qa.cells import FuzzCellSpec

        return FuzzCellSpec(**payload)
    return cellspec_from_payload(payload)


def cell_kind(kind: str):
    """The :class:`~repro.engine.pool.CellKind` of job *kind*."""
    if kind == "fuzz":
        from ..qa.cells import FUZZ

        return FUZZ
    from ..engine.cells import CELLS

    return CELLS


# -- job descriptions ------------------------------------------------------

def validate_submission(body: dict) -> tuple[str, str, list[dict]]:
    """Check one ``POST /v1/jobs`` body; returns (tenant, kind, cells).

    Raises :class:`ProtocolError` on any shape violation — the server
    maps that to a structured ``bad_request`` response.
    """
    check_protocol(body, "job submission")
    tenant = body.get("tenant")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("submission lacks a tenant")
    kind = body.get("kind")
    if kind not in JOB_KINDS:
        raise ProtocolError(
            f"unknown job kind {kind!r} (expected one of {JOB_KINDS})")
    cells = body.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ProtocolError("submission carries no cells")
    for cell in cells:
        if not isinstance(cell, dict) or "key" not in cell \
                or "spec" not in cell:
            raise ProtocolError("each cell needs {'key', 'spec'}")
        if not isinstance(cell["key"], str) or len(cell["key"]) != 64:
            raise ProtocolError(
                f"cell key must be a sha256 hex digest, "
                f"got {cell['key']!r}")
    return tenant, kind, cells


def check_keys(kind: str, cells: list[dict]) -> None:
    """Refuse cells whose key is not their spec's key.

    The fleet stores each result under its submitted key, for every
    subscribing tenant, so a key paired with another cell's spec would
    answer later honest submissions with the wrong payload.  Each spec is
    decoded and its key recomputed with the kind's key function (the one
    the submitter's grid used); the first mismatch raises.
    """
    key_of = cell_kind(kind).key
    for i, cell in enumerate(cells):
        try:
            key = key_of(spec_from_payload(kind, cell["spec"]))
        except ProtocolError:
            raise
        except Exception as exc:  # noqa: BLE001 - any undecodable spec
            raise ProtocolError(
                f"cell {i}: malformed {kind} spec: "
                f"{type(exc).__name__}: {exc}") from exc
        if key != cell["key"]:
            raise ProtocolError(
                f"cell {i}: key {cell['key']} is not its spec's key {key}")


def job_to_dict(job: "Any") -> dict:
    """Public JSON view of one queue job (used by status endpoints)."""
    return {
        "job_id": job.job_id,
        "tenant": job.tenant,
        "kind": job.kind,
        "state": job.state,
        "n_cells": len(job.keys),
        "n_done": job.n_done,
        "n_deduped": job.n_deduped,
        "n_cache_hits": job.n_cache_hits,
        "submitted_ns": job.submitted_ns,
    }

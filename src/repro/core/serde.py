"""Shared serialization helpers: one schema-version discipline for all
result types.

Every serializable result type (``SimStats``, ``ExecStats``,
``CompileResult``, ``SchemeResult``, ``BenchmarkRun``, ``DiffReport``,
``CampaignSummary``) stamps :data:`SCHEMA_VERSION` into its ``to_dict``
payload via :func:`stamp` and validates it in ``from_dict`` via
:func:`check`.  A payload written by a different schema generation fails
loudly with :class:`SchemaMismatch` instead of deserializing into
silently wrong fields — and because the engine's artifact-cache envelope
(:data:`repro.engine.keys.SCHEMA_VERSION`) is bumped in lockstep, stale
cached payloads are evicted as misses before they ever reach a
``from_dict``.

:func:`dump_fields`/:func:`load_fields` factor the flat-scalar part of
the five formerly copy-pasted round-trip patterns.
"""

from __future__ import annotations

from typing import Any, Sequence

#: Version stamped into every result payload.  Bump whenever any result
#: type's serialized shape or meaning changes (and bump
#: ``repro.engine.keys.SCHEMA_VERSION`` with it so cached payloads roll).
#: v2: fence counters in ExecStats/SimStats, spectre fields in the
#: compile-result region report, SpectreFinding payloads.
#: v3: SchemeResult/BenchmarkRun payloads carry the execution backend
#: that produced them (repro.fastsim; engine keys v4, serve protocol v2).
#: v4: ``melds_applied`` in CompileResult payloads and the melded scheme
#: in suite records (engine keys v5, serve protocol v3).
#: (Still v4 after TuneResult payloads lost their ``backend``: an older
#: payload still decodes, and the tune result key changed with it.)
SCHEMA_VERSION = 4

#: The key carrying the version inside every payload.
VERSION_KEY = "schema_version"


class SchemaMismatch(ValueError):
    """A payload's schema version is missing or from another generation."""


def stamp(payload: dict, version: int = SCHEMA_VERSION) -> dict:
    """Add the schema version to *payload* (returned for chaining)."""
    payload[VERSION_KEY] = version
    return payload


def check(payload: dict, kind: str,
          version: int = SCHEMA_VERSION) -> dict:
    """Validate *payload*'s schema version; returns it for chaining.

    *kind* names the result type in the error message.  Raises
    :class:`SchemaMismatch` when the version key is absent (pre-versioned
    payload) or differs from *version*.
    """
    got = payload.get(VERSION_KEY)
    if got != version:
        raise SchemaMismatch(
            f"{kind} payload schema_version={got!r}, expected {version} "
            f"(stale artifact? recompute or clear the cache)")
    return payload


def dump_fields(obj: Any, names: Sequence[str]) -> dict:
    """``{name: getattr(obj, name)}`` for the flat fields of a payload."""
    return {name: getattr(obj, name) for name in names}


def load_fields(payload: dict, names: Sequence[str]) -> dict:
    """``{name: payload[name]}`` — kwargs for a dataclass constructor."""
    return {name: payload[name] for name in names}

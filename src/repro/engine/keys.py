"""Canonical cache-key derivation for the evaluation engine.

A cache key must satisfy two properties:

1. **Stability** — the same logical inputs hash to the same key in every
   process, interpreter invocation, and ``PYTHONHASHSEED``.  Everything is
   therefore serialized through :func:`canonical` (dataclasses to plain
   dicts, dict keys stringified and sorted, tuples to lists) and dumped as
   minified sorted-key JSON before hashing.  Programs contribute their
   printed assembly text (uid-free) plus explicit data-segment tables, so
   two structurally identical programs key identically regardless of how
   they were built.
2. **Collision resistance across code changes** — a change to the
   compiler, simulator, or result schema must not resurrect stale
   artifacts.  :data:`SCHEMA_VERSION` is folded into every key as a salt;
   bump it whenever the semantics of cached payloads change.

The full key of one evaluation cell is
``sha256(canonical_json({schema, program, scheme, heur, config,
max_steps}))`` — see :func:`cell_key`.  No simulator is named: every
cell runs on the fast path, whose payloads equal the reference
simulators' (``tests/fastsim``).  The cells of one grid share a program,
heuristics and machine configs: a :class:`KeyMemo` passed to their
``cell_key`` calls encodes each of those once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Callable, Optional, Union

from ..core.heuristics import FeedbackHeuristics
from ..isa.program import Program
from ..sim.config import MachineConfig

#: Salt folded into every cache key.  Bump on ANY change to the cached
#: payload schema or to code whose output the cache stores (compiler
#: passes, timing model): stale entries then simply stop matching.
#: v2: result payloads carry a ``schema_version`` field (repro.core.serde).
#: v3: fence/spectre counters in result payloads; spectre knobs on
#: FeedbackHeuristics (serde v2).
#: v4: cell keys carry the execution-backend identifier, so a result
#: computed on one backend is never served to a request for the other
#: (serde v3, serve protocol v2 — bumped in lockstep).
#: v5: the melded scheme — meld knobs on FeedbackHeuristics (folded into
#: keys via canonical()), melds_applied in CompileResult payloads
#: (serde v4, serve protocol v3 — bumped in lockstep).
#: v6: speculation renames a hoisted write whose register an earlier,
#: left-behind instruction also writes.  Fuzz verdicts cached under v5
#: recorded the miscompile; no payload shape or wire field changed, so
#: serde stays at v4 and the serve protocol at v3.
#: (Still v6 after cell keys lost their ``extra`` and ``backend`` fields:
#: every cell key's hashed text changed with them, so no stale entry can
#: match, and fuzz keys never carried either.)
SCHEMA_VERSION = 6


def canonical(obj: Any) -> Any:
    """Reduce *obj* to a canonical JSON-compatible structure.

    Dataclasses become dicts tagged with their class name (so two distinct
    config types with identical fields cannot alias); dict keys are
    stringified (JSON dumps then sorts them); tuples and sets become lists
    (sets sorted).  Raises ``TypeError`` for objects with no canonical
    form — keys must never silently depend on ``repr`` or identity.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: dict[str, Any] = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            if f.name.startswith("_"):
                continue  # private machinery (e.g. RNG handles), not state
            out[f.name] = canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonical(v) for v in obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for a cache key")


def canonical_json(obj: Any) -> str:
    """Minified, sorted-key JSON of :func:`canonical` output."""
    return json.dumps(canonical(obj), sort_keys=True,
                      separators=(",", ":"))


def digest(obj: Any) -> str:
    """sha256 hex digest of *obj*'s canonical JSON."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def program_fingerprint(prog: Union[Program, dict]) -> dict:
    """The key-relevant content of a program.

    Delegates to :meth:`Program.to_dict`: printed assembly (uid-free,
    deterministic) plus the data segment, symbols, and code references.
    A ``to_dict`` payload is its own fingerprint and passes through.
    """
    return prog if isinstance(prog, dict) else prog.to_dict()


def program_digest(prog: Program) -> str:
    """sha256 hex digest of one program's fingerprint."""
    return digest(program_fingerprint(prog))


class KeyMemo:
    """Canonical JSON of key components that many cells share.

    :func:`cell_key` encodes its program fingerprint, heuristics and
    machine config on every call.  Handed one memo, the calls of a cell
    grid encode each such object once.  Objects are remembered by
    identity and held for the memo's life, so no id is reused; they must
    not change while the memo is in use.
    """

    def __init__(self) -> None:
        self._texts: dict[int, tuple[Any, str]] = {}

    def encode(self, obj: Any,
               reduce: Callable[[Any], Any] = lambda obj: obj) -> str:
        """``canonical_json(reduce(obj))``, computed once per object."""
        hit = self._texts.get(id(obj))
        if hit is None:
            hit = self._texts[id(obj)] = (obj, canonical_json(reduce(obj)))
        return hit[1]


def _encoded_digest(fields: dict[str, str]) -> str:
    """:func:`digest` of a dict whose values are already canonical JSON."""
    text = "{" + ",".join(f"{json.dumps(name)}:{value}"
                          for name, value in sorted(fields.items())) + "}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_key(prog: Union[Program, dict], scheme: str,
             heur: FeedbackHeuristics, config: MachineConfig,
             max_steps: int, schema_version: int = SCHEMA_VERSION,
             memo: Optional[KeyMemo] = None) -> str:
    """Cache key of one (program, scheme) evaluation cell.

    *prog* is a :class:`Program` or its ``to_dict`` payload (the same
    key either way).  *config* is the fully resolved
    :class:`MachineConfig` (predictor and overrides applied), so any
    machine-parameter sweep point keys distinctly.  *memo* shares the
    encoding of *prog*, *heur* and *config* with other calls; the key
    does not depend on it.
    """
    memo = memo if memo is not None else KeyMemo()
    return _encoded_digest({
        "schema": canonical_json(schema_version),
        "program": memo.encode(prog, program_fingerprint),
        "scheme": canonical_json(scheme),
        "heur": memo.encode(heur),
        "config": memo.encode(config),
        "max_steps": canonical_json(max_steps),
    })

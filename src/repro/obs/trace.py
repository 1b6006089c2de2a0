"""Tracing spans: monotonic timing + structured attributes, emitted as JSONL.

One span is one timed region of work (a compiler pass, a scheme cell, a
fuzz-campaign stage).  Spans nest: the tracer keeps a stack, so every
record carries its parent span id and depth, and a trace can be folded
back into a tree.  Records are written as one JSON object per line in
completion order (children before parents, since a span is emitted when
it *closes*)::

    {"name": "pass.speculate", "span_id": 7, "parent_id": 3, "depth": 2,
     "start_ns": 81234, "dur_ns": 55102, "attrs": {"stage": "speculate"}}

Timing uses :func:`time.perf_counter_ns` (monotonic, unaffected by wall
clock adjustments); ``start_ns`` is relative to tracer creation, so two
traces are comparable only within themselves.

The instrumentation contract is the module-level :func:`span`: when no
tracer is installed (the default), it returns the shared
:data:`NULL_SPAN` whose ``__enter__``/``__exit__``/``set`` do nothing —
disabled tracing costs one context-variable read and a comparison per
span, and the simulator's per-cycle hot loop contains no spans at all
(see :mod:`repro.obs.pipeline_obs`).

The installed tracer is a :class:`contextvars.ContextVar`, so it records
only the thread (context) that installed it: two sessions traced on two
threads each write their own trace, and a thread that installed none
emits nothing.  Worker processes of :mod:`repro.engine.pool` start by
uninstalling the tracer they were forked with, so they contribute no
spans to the parent's trace; traced runs that must capture every cell
span should run with ``jobs=1``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Iterator, Optional, TextIO, Union

#: Version stamped into every span record (``"v"``); readers reject
#: records from a different major schema.
TRACE_SCHEMA_VERSION = 1


class Span:
    """One open traced region; a context manager that emits on close.

    Attributes passed at creation or added via :meth:`set` travel in the
    record's ``attrs`` object.  An exception propagating through the span
    is recorded as ``attrs["error"]`` (exception type name) — the span is
    still emitted, and the exception still propagates.
    """

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "depth",
                 "attrs", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], depth: int, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.attrs = attrs
        self._start_ns = 0

    def set(self, key: str, value: Any) -> None:
        """Attach one structured attribute to this span."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self)
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_ns = time.perf_counter_ns()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        stack = self._tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:            # mis-nested exit: drop down to us
            del stack[stack.index(self):]
        self._tracer._emit(self, end_ns)
        return False


class _NullSpan:
    """Shared do-nothing span returned when no tracer is installed."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        """No-op."""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The singleton no-op span; identity-comparable in tests.
NULL_SPAN = _NullSpan()


class Tracer:
    """Writes nested spans as JSONL to a sink (path or text stream).

    A path sink is opened (and closed by :meth:`close`) by the tracer; a
    stream sink is borrowed and left open.  Span ids are unique and
    ascending within one tracer.
    """

    def __init__(self, sink: Union[str, Path, TextIO]):
        if isinstance(sink, (str, Path)):
            self._fh: TextIO = open(sink, "w", encoding="utf-8")
            self._owns_sink = True
        else:
            self._fh = sink
            self._owns_sink = False
        self._origin_ns = time.perf_counter_ns()
        self._next_id = 1
        self._stack: list[Span] = []

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a new span nested under the currently active one."""
        parent = self._stack[-1] if self._stack else None
        sid = self._next_id
        self._next_id += 1
        return Span(self, name, sid,
                    parent.span_id if parent is not None else None,
                    parent.depth + 1 if parent is not None else 0,
                    dict(attrs))

    def _emit(self, s: Span, end_ns: int) -> None:
        record = {
            "v": TRACE_SCHEMA_VERSION,
            "name": s.name,
            "span_id": s.span_id,
            "parent_id": s.parent_id,
            "depth": s.depth,
            "start_ns": s._start_ns - self._origin_ns,
            "dur_ns": end_ns - s._start_ns,
            "attrs": s.attrs,
        }
        try:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        except ValueError:             # sink already closed; drop the span
            pass

    def close(self) -> None:
        """Flush, and close the sink if this tracer opened it."""
        try:
            self._fh.flush()
        except ValueError:
            pass
        if self._owns_sink:
            self._fh.close()


_ACTIVE: ContextVar[Optional[Tracer]] = ContextVar("repro_tracer",
                                                   default=None)


def install(tracer: Tracer) -> None:
    """Make *tracer* the tracer :func:`span` emits to in this context."""
    _ACTIVE.set(tracer)


def uninstall() -> None:
    """Remove this context's tracer; :func:`span` becomes a no-op."""
    _ACTIVE.set(None)


def active_tracer() -> Optional[Tracer]:
    """The tracer installed in this context, or None."""
    return _ACTIVE.get()


def span(name: str, **attrs: Any):
    """Open a span on the installed tracer; :data:`NULL_SPAN` when none.

    The instrumentation entry point used throughout the codebase::

        with obs_span("pass.speculate", stage=stage) as sp:
            ...
            sp.set("moved", report.speculated)
    """
    t = _ACTIVE.get()
    if t is None:
        return NULL_SPAN
    return t.span(name, **attrs)


@contextmanager
def tracing(sink: Union[str, Path, TextIO]) -> Iterator[Tracer]:
    """Install a tracer writing to *sink* for the duration of the block."""
    tracer = Tracer(sink)
    install(tracer)
    try:
        yield tracer
    finally:
        uninstall()
        tracer.close()


def read_trace(source: Union[str, Path, TextIO]) -> list[dict]:
    """Parse a JSONL trace back into span records (schema-checked).

    Raises ``ValueError`` on a malformed line or a record from an
    incompatible schema version, with the 1-based line number.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    records: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {lineno}: not JSON ({exc})")
        if not isinstance(rec, dict) or "name" not in rec \
                or "dur_ns" not in rec:
            raise ValueError(f"trace line {lineno}: not a span record")
        if rec.get("v") != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"trace line {lineno}: schema version {rec.get('v')!r}, "
                f"expected {TRACE_SCHEMA_VERSION}")
        records.append(rec)
    return records

"""Workload ingestion: import third-party programs as first-class
workloads.

Two front ends — a Bril-like source format (:mod:`repro.ingest.source`)
and a JSONL basic-block trace format (:mod:`repro.ingest.trace`) — parse
into one tiny block IR (:mod:`repro.ingest.model`), which
:mod:`repro.ingest.lower` register-allocates and lowers onto the ISA,
verified by the :mod:`repro.robust` verifier.  Imported programs join
the evaluation through :func:`repro.workloads.imported.load_imported`
and are cache-isolated by a content hash embedded in the program name.

Golden-file conformance lives in :mod:`repro.ingest.golden` (shared by
``repro ingest --check`` and ``tests/ingest``); every failure mode is a
structured :class:`IngestError` subclass (:mod:`repro.ingest.errors`).
"""

from .errors import (IngestError, LowerError, RegisterPressureError,
                     SourceError, TraceError)
from .model import Block, Function, Op
from .source import parse_source
from .trace import parse_trace
from .lower import (ALLOCATABLE, allocate_registers, import_path,
                    import_source, import_trace, lower_function)
from .golden import (check_fixture, expand_fixtures, golden_path,
                     lowered_text, stats_path, stats_text, update_fixture)

__all__ = [
    "IngestError", "SourceError", "TraceError", "LowerError",
    "RegisterPressureError",
    "Op", "Block", "Function",
    "parse_source", "parse_trace",
    "ALLOCATABLE", "allocate_registers", "lower_function",
    "import_source", "import_trace", "import_path",
    "check_fixture", "expand_fixtures", "golden_path", "lowered_text",
    "stats_path", "stats_text", "update_fixture",
]

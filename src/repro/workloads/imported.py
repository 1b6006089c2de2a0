"""Imported programs as first-class workloads.

:func:`load_imported` turns files accepted by :mod:`repro.ingest` into
the same ``name -> Program`` mapping :func:`benchmark_programs` produces,
so the profiler, every scheme, the engine cache, and the simulators
consume them unchanged (``Session.run_suite(benchmarks=...)``).

The mapping is keyed by the program's content-hashed name
(``main@ab12cd34ef56``): two imports of byte-different files can never
collide with each other or with a synthetic benchmark, which is what
keeps imported cells from poisoning synthetic cache cells.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Union

from ..ingest.errors import IngestError
from ..ingest.lower import import_path
from ..isa.program import Program


def load_imported(paths: Iterable[Union[str, Path]]) \
        -> dict[str, Program]:
    """Import every file in *paths*; returns ``{content-hashed-name:
    Program}``.  Raises :class:`~repro.ingest.errors.IngestError` on the
    first file that fails to import, naming the file."""
    out: dict[str, Program] = {}
    for path in paths:
        try:
            prog = import_path(path)
        except IngestError as exc:
            # Prefix the offending file in place: subclasses have varied
            # constructor signatures, so re-raising the same object keeps
            # both the type and the structured attributes intact.
            exc.args = (f"{path}: {exc.args[0]}",)
            raise
        out[prog.name] = prog
    return out

"""Scheme results: the cells of the paper's comparison and their serde.

Tables 3 and 4 compare, per benchmark, the columns of the scheme table
(:func:`repro.core.schemes.columns`): the paper's ``2bitBP``,
``Proposed`` and ``PerfectBP``, then Proposed's ``safe-speculative`` and
``melded`` variants.  One :class:`SchemeResult` is one (benchmark,
scheme) cell and one :class:`BenchmarkRun` a benchmark's row of them.
Cells are run by
:func:`repro.engine.cells.execute_cell` only, whatever the entry point
(``Session.run_suite``, ``repro.engine.run_suite``, pool and serve
workers, tune).  A cell that raises is retried once, then
recorded as a *failed cell*: ``SchemeResult.failure`` holds the
classified reason and the tables render ``FAIL(<reason>)`` instead of
the whole run aborting.  ``strict=True`` restores fail-fast for
debugging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core import serde
from ..core.pipeline import CompileResult
from ..sim.functional import ExecStats
from ..sim.stats import SimStats


@dataclass
class SchemeResult:
    """One (benchmark, scheme) cell of the evaluation.

    A failed cell carries ``failure`` (one-line reason) instead of stats;
    check :attr:`ok` before dereferencing ``stats``/``exec_stats``.
    """

    benchmark: str
    scheme: str
    stats: Optional[SimStats] = None
    exec_stats: Optional[ExecStats] = None
    compile_result: Optional[CompileResult] = None
    failure: Optional[str] = None
    failure_detail: str = ""

    @property
    def ok(self) -> bool:
        """True when the cell produced statistics."""
        return self.failure is None and self.stats is not None

    def to_dict(self) -> dict:
        """JSON-serializable form: the engine's artifact-cache payload and
        the ``tables --json`` record for this cell."""
        return serde.stamp({
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "stats": self.stats.to_dict() if self.stats else None,
            "exec_stats": (self.exec_stats.to_dict()
                           if self.exec_stats else None),
            "compile_result": (self.compile_result.to_dict()
                               if self.compile_result else None),
            "failure": self.failure,
            "failure_detail": self.failure_detail,
        })

    @classmethod
    def from_dict(cls, d: dict) -> "SchemeResult":
        """Inverse of :meth:`to_dict` (schema-version checked)."""
        serde.check(d, "SchemeResult")
        return cls(
            benchmark=d["benchmark"],
            scheme=d["scheme"],
            stats=SimStats.from_dict(d["stats"]) if d["stats"] else None,
            exec_stats=(ExecStats.from_dict(d["exec_stats"])
                        if d["exec_stats"] else None),
            compile_result=(CompileResult.from_dict(d["compile_result"])
                            if d["compile_result"] else None),
            failure=d["failure"],
            failure_detail=d["failure_detail"],
        )


@dataclass
class BenchmarkRun:
    """Every scheme's cell for one benchmark."""

    name: str
    results: dict[str, SchemeResult] = field(default_factory=dict)

    def __getitem__(self, scheme: str) -> SchemeResult:
        return self.results[scheme]

    @property
    def ok(self) -> bool:
        """True when every scheme cell produced statistics."""
        return all(r.ok for r in self.results.values())

    @property
    def failures(self) -> list[SchemeResult]:
        """The failed cells of this benchmark (empty when clean)."""
        return [r for r in self.results.values() if not r.ok]

    @property
    def improvement(self) -> float:
        """Proposed-over-2bitBP IPC ratio (the paper's headline metric).

        ``nan`` when either cell failed — failed cells poison ratios, not
        the whole report.
        """
        prop, base = self.results.get("Proposed"), self.results.get("2bitBP")
        if prop is None or base is None or not (prop.ok and base.ok):
            return float("nan")
        return prop.stats.ipc / base.stats.ipc

    def to_dict(self) -> dict:
        """JSON-serializable form (``tables --json`` per-benchmark record)."""
        imp = self.improvement
        return serde.stamp(
            {"name": self.name,
             "results": {s: r.to_dict() for s, r in self.results.items()},
             "improvement": None if imp != imp else imp})


def suite_to_dict(runs: dict[str, BenchmarkRun]) -> dict:
    """Machine-readable form of a suite run (``tables --json``)."""
    return {name: run.to_dict() for name, run in runs.items()}


def suite_failures(runs: dict[str, BenchmarkRun]) -> list[SchemeResult]:
    """All failed cells across a suite run, in benchmark order."""
    out: list[SchemeResult] = []
    for run in runs.values():
        out.extend(run.failures)
    return out

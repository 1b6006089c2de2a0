"""Declarative design-space sweeps over the evaluation engine.

The paper's reproductions gain value with every configuration evaluated
per unit time (compare the exhaustive design-space sweeps of Mitrevski &
Gušev and the fetch-rate sweeps of Ramachandran & Johnson in PAPERS.md).
:class:`SweepSpec` describes a cartesian product over workload scale
factors, machine-configuration fields (issue widths, queue sizes, ...),
and feedback-heuristic thresholds; :func:`run_sweep` evaluates every
point through the suite runner — the same artifact cache and executor,
local or remote — and emits one flat JSON-serializable record per
(point, benchmark, scheme) cell.

Example::

    spec = SweepSpec(scales=(0.1, 0.3),
                     config_grid={"fetch_width": (2, 4, 8)},
                     heur_grid={"speculation_bias": (0.5, 0.65, 0.8)})
    records = run_sweep(spec, executor=LocalExecutor(jobs=4), cache=True)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields as dc_fields, replace
from typing import Callable, Iterator, Optional

from ..core.heuristics import DEFAULT_HEURISTICS, FeedbackHeuristics
from ..obs.trace import span as obs_span
from ..sim.config import MachineConfig
from ..workloads import benchmark_programs
from .suite import CacheLike, run_suite


@dataclass(frozen=True)
class SweepSpec:
    """A cartesian design-space sweep description.

    ``config_grid`` maps :class:`~repro.sim.config.MachineConfig` field
    names to the values to sweep; ``heur_grid`` does the same for
    :class:`~repro.core.heuristics.FeedbackHeuristics` fields.  Unknown
    field names raise ``ValueError`` at validation time, not deep inside a
    worker.  ``benchmarks`` limits the workload set (None = all four).
    """

    scales: tuple[float, ...] = (1.0,)
    config_grid: tuple[tuple[str, tuple], ...] = ()
    heur_grid: tuple[tuple[str, tuple], ...] = ()
    benchmarks: Optional[tuple[str, ...]] = None
    max_steps: int = 50_000_000
    seed: Optional[int] = None

    def validate(self) -> None:
        """Reject unknown or duplicated axis field names early.

        Every error names the offending grid (``config_grid`` vs
        ``heur_grid``) *and* field.  Duplicate fields — repeated within
        one grid, or appearing in both grids — are rejected instead of
        silently letting the later axis override the earlier one when
        :meth:`points` flattens each combination into a dict.
        """
        config_names = {f.name for f in dc_fields(MachineConfig)}
        heur_names = {f.name for f in dc_fields(FeedbackHeuristics)}
        seen: dict[str, str] = {}  # field -> grid that first claimed it
        for grid_name, grid, known, kind in (
                ("config_grid", self.config_grid, config_names,
                 "MachineConfig"),
                ("heur_grid", self.heur_grid, heur_names,
                 "FeedbackHeuristics")):
            for name, _ in grid:
                if name not in known:
                    raise ValueError(
                        f"{grid_name}: unknown {kind} field {name!r}")
                if grid_name == "config_grid" and name == "predictor":
                    raise ValueError(
                        "config_grid: the predictor axis is fixed by the "
                        "scheme table; sweep other fields")
                if name in seen:
                    where = ("appears twice in " + grid_name
                             if seen[name] == grid_name else
                             f"appears in both {seen[name]} and {grid_name}")
                    raise ValueError(
                        f"duplicate sweep axis {name!r}: {where} "
                        f"(later values would silently override earlier "
                        f"ones)")
                seen[name] = grid_name

    def points(self) -> Iterator[dict]:
        """Every sweep point: ``{"scale", "config", "heur"}`` dicts."""
        config_axes = [[(name, v) for v in values]
                       for name, values in self.config_grid]
        heur_axes = [[(name, v) for v in values]
                     for name, values in self.heur_grid]
        for scale in self.scales:
            for config_combo in itertools.product(*config_axes):
                for heur_combo in itertools.product(*heur_axes):
                    yield {"scale": scale,
                           "config": dict(config_combo),
                           "heur": dict(heur_combo)}

    @property
    def num_points(self) -> int:
        """Number of sweep points (before the benchmark × scheme fan-out)."""
        n = len(self.scales)
        for _, values in self.config_grid:
            n *= len(values)
        for _, values in self.heur_grid:
            n *= len(values)
        return n


def grid_from_dict(grid: dict) -> tuple[tuple[str, tuple], ...]:
    """Normalize ``{field: iterable}`` into the spec's hashable form."""
    return tuple(sorted((name, tuple(values))
                        for name, values in grid.items()))


def _cell_record(point: dict, name: str, cell) -> dict:
    """One flat JSON record for a (sweep point, benchmark, scheme) cell."""
    rec = {
        "scale": point["scale"],
        "config": dict(point["config"]),
        "heur": dict(point["heur"]),
        "benchmark": name,
        "scheme": cell.scheme,
        "ok": cell.ok,
        "failure": cell.failure,
        "cycles": None, "committed": None, "annulled": None,
        "ipc": None, "branch_accuracy": None,
        "degraded": None, "fallback": None,
    }
    if cell.ok:
        st = cell.stats
        rec.update(cycles=st.cycles, committed=st.committed,
                   annulled=st.annulled, ipc=st.ipc,
                   branch_accuracy=st.predictor.accuracy)
    if cell.compile_result is not None:
        rec.update(degraded=cell.compile_result.degraded,
                   fallback=cell.compile_result.fallback)
    return rec


def run_sweep(spec: SweepSpec, executor=None, cache: CacheLike = None,
              progress: Optional[Callable[[str], None]] = None
              ) -> list[dict]:
    """Evaluate every point of *spec*; returns one record per cell.

    Each point reuses the suite engine, so the artifact cache deduplicates
    across points (e.g. the 2bitBP baseline of a config point is shared by
    every heuristic variation, which only changes the Proposed cells) and
    across repeated sweep invocations; *executor* runs each point's
    misses, as for :func:`~repro.engine.suite.run_suite`.  Each point
    emits a ``sweep.point`` tracing span carrying the point's
    scale/config/heur attributes.
    """
    spec.validate()
    records: list[dict] = []
    for i, point in enumerate(spec.points()):
        if progress:
            progress(f"point {i + 1}/{spec.num_points}: "
                     f"scale={point['scale']} config={point['config']} "
                     f"heur={point['heur']}")
        heur = (replace(DEFAULT_HEURISTICS, **point["heur"])
                if point["heur"] else DEFAULT_HEURISTICS)
        with obs_span("sweep.point", index=i, scale=point["scale"],
                      config=dict(point["config"]),
                      heur=dict(point["heur"])):
            programs = benchmark_programs(point["scale"], seed=spec.seed)
            if spec.benchmarks is not None:
                programs = {n: p for n, p in programs.items()
                            if n in spec.benchmarks}
            runs = run_suite(benchmarks=programs, heur=heur,
                             config_overrides=point["config"],
                             max_steps=spec.max_steps, executor=executor,
                             cache=cache)
        for name, run in runs.items():
            for cell in run.results.values():
                records.append(_cell_record(point, name, cell))
    return records

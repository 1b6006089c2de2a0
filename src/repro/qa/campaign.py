"""The differential fuzzing campaign runner.

:func:`run_campaign` drives the whole loop:

1. expand the strategy lattice into *budget* deterministic fuzz cells;
2. run them through :func:`repro.engine.pool.run_cached`: each cell is
   resolved against the :mod:`repro.engine` artifact cache, the misses
   go to the executor (the local pool or a serve fleet), and only
   verdicts without a cell error are stored;
3. shrink every divergence to a minimal reproducer (delta debugging at
   block then instruction granularity, re-running the failing scheme's
   oracle at each step) and write it into the triage-bucketed corpus;
4. aggregate a deterministic :class:`CampaignSummary` (identical across
   reruns of the same budget/seed — cache traffic and wall time are
   deliberately excluded).

The summary's determinism is what makes ``repro fuzz`` usable as a CI
gate: two runs of ``--budget N --seed S`` must print the same report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..core import serde
from ..engine.pool import run_cached
from ..engine.cache import ArtifactCache
from ..obs.trace import span as obs_span
from ..isa.printer import format_program
from ..isa.program import Program
from . import cells as _cells
from .cells import FUZZ, FUZZ_MAX_STEPS, FuzzCellSpec, fuzz_cell_key
from .shrink import DEFAULT_ORACLE_BUDGET, shrink_program
from .strategies import FuzzStrategy, campaign_plan, select_strategies
from .triage import TriageEntry, triage_cell_error, triage_divergence

@dataclass
class CampaignConfig:
    """Everything one campaign run depends on."""

    budget: int = 100
    seed: int = 0
    shrink: bool = True
    strategies: Optional[Sequence[str]] = None   # lattice names; None = all
    max_steps: int = FUZZ_MAX_STEPS
    corpus_dir: Optional[str] = None             # None = don't persist
    cache: Optional[ArtifactCache] = None
    oracle_budget: int = DEFAULT_ORACLE_BUDGET


@dataclass
class CampaignSummary:
    """Deterministic aggregate of one campaign (safe to diff across runs)."""

    budget: int
    seed: int
    strategies: list[str]
    programs: int = 0
    cell_errors: int = 0
    divergences: int = 0
    buckets: dict[str, int] = field(default_factory=dict)
    per_strategy: dict[str, dict] = field(default_factory=dict)
    shrinks: list[dict] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing diverged and no cell crashed."""
        return self.divergences == 0 and self.cell_errors == 0

    def to_dict(self) -> dict:
        """JSON-serializable form of the summary (schema-version stamped)."""
        return serde.stamp({
            "budget": self.budget,
            "seed": self.seed,
            "strategies": list(self.strategies),
            "programs": self.programs,
            "cell_errors": self.cell_errors,
            "divergences": self.divergences,
            "buckets": dict(sorted(self.buckets.items())),
            "per_strategy": {k: dict(v) for k, v in
                             sorted(self.per_strategy.items())},
            "shrinks": list(self.shrinks),
        })

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignSummary":
        """Inverse of :meth:`to_dict` (schema-version checked)."""
        serde.check(d, "CampaignSummary")
        return cls(
            budget=d["budget"], seed=d["seed"],
            strategies=list(d["strategies"]), programs=d["programs"],
            cell_errors=d["cell_errors"], divergences=d["divergences"],
            buckets=dict(d["buckets"]),
            per_strategy={k: dict(v)
                          for k, v in d["per_strategy"].items()},
            shrinks=list(d["shrinks"]))

    def format(self) -> str:
        """Human-readable campaign report."""
        lines = [
            f"campaign: budget={self.budget} seed={self.seed}",
            f"  programs tried : {self.programs}",
            f"  divergences    : {self.divergences}",
            f"  cell errors    : {self.cell_errors}",
        ]
        lines.append("  per strategy   :")
        for name in sorted(self.per_strategy):
            s = self.per_strategy[name]
            lines.append(f"    {name:<14} {s['programs']:>4} programs, "
                         f"{s['divergences']} divergent")
        if self.buckets:
            lines.append("  triage buckets :")
            for bucket in sorted(self.buckets):
                lines.append(f"    {self.buckets[bucket]:>3}x {bucket}")
        if self.shrinks:
            lines.append("  shrinks        :")
            for s in self.shrinks:
                lines.append(
                    f"    {s['name']}: {s['original_len']} -> "
                    f"{s['shrunk_len']} instrs "
                    f"(ratio {s['ratio']:.2f}, {s['oracle_calls']} oracle "
                    f"calls)")
        lines.append("  verdict        : "
                     + ("CLEAN" if self.clean else "DIVERGENT"))
        return "\n".join(lines)


@dataclass
class CampaignResult:
    """Summary plus the full triage entries of one campaign."""

    summary: CampaignSummary
    entries: list[TriageEntry] = field(default_factory=list)


def scheme_oracle(scheme: str, kind: str,
                  max_steps: int = FUZZ_MAX_STEPS,
                  ) -> Callable[[Program], bool]:
    """Failure oracle for shrinking: does *scheme* still diverge the same
    way on a candidate?

    Requiring the same divergence *kind* keeps the shrink anchored to the
    original bug instead of sliding onto an unrelated one mid-reduction.
    Pass a *max_steps* scaled to the original failure's dynamic length —
    a deletion that leaves the candidate spinning in an infinite loop
    should cost a bounded (small) simulation, not the full cell budget.
    As in a fuzz cell, one run of the candidate is both its profile and
    its reference; a candidate that cannot run raises, which the
    shrinker counts as not failing.
    """
    def _failing(candidate: Program) -> bool:
        profile, reference = _cells.profile_and_reference(candidate,
                                                          max_steps)
        # Attribute lookup at call time, so fault-injection tests that
        # monkeypatch ``repro.qa.cells.compile_scheme`` shrink against
        # the same buggy compiler that produced the divergence.
        result = _cells.compile_scheme(candidate, scheme, profile=profile,
                                       max_steps=max_steps)
        report = reference.check(result.program)
        return (not report.equivalent) and report.kind == kind
    return _failing


def _shrink_entry(entry: TriageEntry, prog: Program,
                  cfg: CampaignConfig) -> None:
    """Attach the original and (if enabled) shrunk assembly to *entry*."""
    entry.program_text = format_program(prog)
    if not cfg.shrink:
        return
    # "name" is span()'s own first parameter; the entry name goes under
    # a different attr key.
    with obs_span("fuzz.shrink", reproducer=entry.name,
                  scheme=entry.scheme, kind=entry.kind) as sp:
        # Candidates never need to run much longer than the original
        # failure did; the floor keeps very short failures shrinkable.
        orig_steps = int(entry.report.get("original_steps") or 0)
        step_cap = min(cfg.max_steps, max(20_000, orig_steps * 16))
        oracle = scheme_oracle(entry.scheme, entry.kind, step_cap)
        result = shrink_program(prog, oracle,
                                oracle_budget=cfg.oracle_budget)
        entry.shrunk_text = format_program(result.program)
        entry.shrink = result.to_dict()
        sp.set("oracle_calls", entry.shrink.get("oracle_calls"))


def run_campaign(cfg: CampaignConfig,
                 progress: Optional[Callable[[str], None]] = None,
                 executor=None) -> CampaignResult:
    """Run one differential fuzzing campaign; see the module docstring.

    *executor* runs the cache-miss cells (None = a
    :class:`~repro.engine.pool.LocalExecutor` at ``jobs=1``; a
    :class:`~repro.serve.client.ServeClient` plugs a service fleet in);
    generation, triage, and shrinking stay local either way.
    """
    with obs_span("fuzz.campaign", budget=cfg.budget, seed=cfg.seed) as sp:
        result = _run_campaign_inner(cfg, progress, executor)
        sp.set("divergences", result.summary.divergences)
        sp.set("cell_errors", result.summary.cell_errors)
    return result


def _run_campaign_inner(cfg: CampaignConfig,
                        progress: Optional[Callable[[str], None]] = None,
                        executor=None) -> CampaignResult:
    """Campaign body (split out so the span wraps it whole)."""
    strategies: tuple[FuzzStrategy, ...] = select_strategies(cfg.strategies)
    plan = list(campaign_plan(cfg.budget, cfg.seed, strategies))
    specs = [FuzzCellSpec(s.name, seed, cfg.max_steps) for s, seed in plan]
    payloads, _, _ = run_cached(
        FUZZ, [(fuzz_cell_key(spec), spec) for spec in specs], executor,
        cfg.cache, progress=progress)

    summary = CampaignSummary(budget=cfg.budget, seed=cfg.seed,
                              strategies=[s.name for s in strategies])
    entries: list[TriageEntry] = []
    for spec, payload in zip(specs, payloads):
        summary.programs += 1
        per = summary.per_strategy.setdefault(
            spec.strategy, {"programs": 0, "divergences": 0})
        per["programs"] += 1
        if payload.get("error"):
            summary.cell_errors += 1
            entry = triage_cell_error(payload)
            entries.append(entry)
            summary.buckets[entry.bucket] = \
                summary.buckets.get(entry.bucket, 0) + 1
            continue
        for scheme in payload["divergent"]:
            summary.divergences += 1
            per["divergences"] += 1
            entry = triage_divergence(payload, scheme)
            if progress:
                progress(f"DIVERGENCE {entry.name}: {entry.bucket}")
            _shrink_entry(entry, spec.program(), cfg)
            entries.append(entry)
            summary.buckets[entry.bucket] = \
                summary.buckets.get(entry.bucket, 0) + 1
            if entry.shrink is not None:
                summary.shrinks.append({"name": entry.name,
                                        **entry.shrink})
            if cfg.corpus_dir:
                from .corpus import save_reproducer

                path = save_reproducer(cfg.corpus_dir, entry)
                if progress:
                    progress(f"reproducer written to {path}")
    return CampaignResult(summary=summary, entries=entries)

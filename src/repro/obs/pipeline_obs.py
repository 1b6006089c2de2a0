"""Cycle-simulator observer: rates, intervals, entropy, hot-PC sampling.

:class:`PipelineObserver` derives the per-cycle dynamics the paper's
analysis rests on — fetch/issue/retire rates, distances between
mispredictions, per-branch outcome entropy — from a
:class:`~repro.sim.pipeline.TimingSim` run *without touching the
simulator's hot loop*.  It attaches by rebinding the sim's ``_issue``
and ``_dispatch`` bound methods as instance attributes (shadowing the
class methods for that one instance) and wrapping the trace iterator;
an unobserved ``TimingSim`` executes byte-identical code to one built
before this module existed, so observation costs nothing when it is off.

All derived figures come from deltas of counters the simulator already
maintains:

* **retires/cycle** — delta of ``committed + annulled`` at the start of
  each ``_issue`` call (the commit stage runs immediately before it);
* **issues/cycle** — delta of ``sum(unit_issues)`` across ``_issue``;
* **fetch/cycle** — active-list growth across ``_dispatch`` (clamped at
  zero: a wrong-path squash inside dispatch may shrink it);
* **mispredict intervals** — cycle distance between increments of
  ``mispredict_events``;
* **branch entropy** — per-PC taken/total counts from the trace, folded
  into binary entropy at :meth:`finalize`.

The opt-in **sampling hook** records every *N*-th dynamic trace entry's
static instruction index; :func:`heat_report` buckets the resulting
histogram by the program's :func:`~repro.cfg.graph.build_cfg` basic
blocks.
"""

from __future__ import annotations

from math import log2
from typing import Iterable, Iterator, Optional

from .metrics import REGISTRY, MetricsRegistry

#: Bucket bounds for per-cycle rate histograms (dispatch width is 4).
RATE_BOUNDS = (0, 1, 2, 3, 4, 8)
#: Bucket bounds for mispredict-interval histograms (cycles).
INTERVAL_BOUNDS = (4, 8, 16, 32, 64, 128, 256, 1024)
#: Bucket bounds for the branch-entropy histogram (bits; max is 1.0).
ENTROPY_BOUNDS = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


def outcome_entropy(taken: int, total: int) -> float:
    """Binary entropy (bits) of a branch's outcome distribution.

    0.0 for a perfectly biased branch, 1.0 for a 50/50 one — the
    information-theoretic ceiling on what any history predictor can
    learn from the outcome stream alone.
    """
    if total <= 0 or taken <= 0 or taken >= total:
        return 0.0
    p = taken / total
    q = 1.0 - p
    return -(p * log2(p) + q * log2(q))


class PipelineObserver:
    """Derives pipeline dynamics from one :class:`TimingSim` run.

    Pass as ``TimingSim(..., observer=PipelineObserver())`` or let
    :func:`maybe_observer` supply one when metrics are enabled.  One
    observer observes one run; create a fresh one per simulation.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 sample_interval: int = 0):
        self.registry = registry if registry is not None else REGISTRY
        self.sample_interval = sample_interval
        #: static instruction index -> number of samples landing on it
        self.pc_samples: dict[int, int] = {}
        #: static branch index -> [taken, total] outcome counts
        self.branch_outcomes: dict[int, list[int]] = {}
        #: per-branch entropy, filled by :meth:`finalize`
        self.branch_entropy: dict[int, float] = {}
        self.trace_entries = 0
        self._retired = 0
        self._issued = 0
        self._mispredicts = 0
        self._last_mispredict_cycle: Optional[int] = None

    # -- attachment --------------------------------------------------------

    def attach(self, sim, trace: Iterable) -> Iterator:
        """Instrument *sim* for one run; returns the wrapped trace.

        Called by :meth:`TimingSim.run`.  Rebinds ``_issue`` and
        ``_dispatch`` on the instance; the class methods themselves are
        never modified.
        """
        stats = sim.stats
        reg = self.registry
        orig_issue = sim._issue
        orig_dispatch = sim._dispatch

        def _observed_issue(cycle: int) -> None:
            retired = stats.committed + stats.annulled
            reg.observe("pipeline.retire_per_cycle",
                        retired - self._retired, RATE_BOUNDS)
            self._retired = retired
            orig_issue(cycle)
            issued = sum(stats.unit_issues.values())
            reg.observe("pipeline.issue_per_cycle",
                        issued - self._issued, RATE_BOUNDS)
            self._issued = issued

        def _observed_dispatch(cycle, pending, it):
            rob_before = len(sim._rob)
            out = orig_dispatch(cycle, pending, it)
            reg.observe("pipeline.fetch_per_cycle",
                        max(0, len(sim._rob) - rob_before), RATE_BOUNDS)
            mis = stats.mispredict_events
            if mis > self._mispredicts:
                if self._last_mispredict_cycle is not None:
                    reg.observe("pipeline.mispredict_interval",
                                cycle - self._last_mispredict_cycle,
                                INTERVAL_BOUNDS)
                self._last_mispredict_cycle = cycle
                self._mispredicts = mis
            return out

        sim._issue = _observed_issue
        sim._dispatch = _observed_dispatch
        return self._wrap_trace(trace)

    def _wrap_trace(self, trace: Iterable) -> Iterator:
        """Observe trace entries: branch outcomes + hot-PC sampling."""
        interval = self.sample_interval
        samples = self.pc_samples
        outcomes = self.branch_outcomes
        seen = 0
        for entry in trace:
            seen += 1
            if interval and seen % interval == 0:
                samples[entry.index] = samples.get(entry.index, 0) + 1
            if entry.taken is not None and not entry.annulled \
                    and entry.ins.is_branch:
                rec = outcomes.get(entry.index)
                if rec is None:
                    rec = outcomes[entry.index] = [0, 0]
                rec[0] += bool(entry.taken)
                rec[1] += 1
            yield entry
        self.trace_entries = seen

    # -- finalization ------------------------------------------------------

    def finalize(self, stats) -> None:
        """Fold run totals and per-branch entropy into the registry."""
        reg = self.registry
        reg.inc("pipeline.cycles", stats.cycles)
        reg.inc("pipeline.committed", stats.committed)
        reg.inc("pipeline.annulled", stats.annulled)
        reg.inc("pipeline.mispredicts", stats.mispredict_events)
        reg.inc("pipeline.traced_entries", self.trace_entries)
        for index, (taken, total) in sorted(self.branch_outcomes.items()):
            h = outcome_entropy(taken, total)
            self.branch_entropy[index] = h
            reg.observe("pipeline.branch_entropy", h, ENTROPY_BOUNDS)


def maybe_observer(sample_interval: int = 0) -> Optional[PipelineObserver]:
    """An observer when metrics are enabled (or sampling asked), else None.

    The one-line opt-in gate used by every simulation call site: with the
    registry disabled and no sampling requested, the simulator runs with
    ``observer=None`` — the pre-observability code path, exactly.
    """
    if REGISTRY.enabled or sample_interval:
        return PipelineObserver(sample_interval=sample_interval)
    return None


def heat_report(samples: dict[int, int], prog, name: str) -> str:
    """Render a hot-PC sample histogram as a per-basic-block heat table.

    *samples* maps static instruction indices (as collected by
    :class:`PipelineObserver` with ``sample_interval > 0``) to sample
    counts; blocks come from :func:`repro.cfg.graph.build_cfg` of the
    simulated program, whose blocks partition the instruction indices in
    layout order.  Blocks with no samples are omitted.  The heading
    names *name*: the input program, when *prog* is one of its compiles.
    """
    from ..cfg.graph import build_cfg

    cfg = build_cfg(prog)
    total = sum(samples.values())
    rows: list[tuple[int, str, int, int]] = []   # (count, label, lo, hi)
    start = 0
    for bb in cfg.blocks:
        end = start + len(bb.instructions)
        count = sum(n for idx, n in samples.items() if start <= idx < end)
        if count:
            rows.append((count, bb.label or f"bb{bb.bid}", start, end - 1))
        start = end
    rows.sort(key=lambda r: (-r[0], r[2]))
    lines = [f"heat report: {name} "
             f"({total} samples, {len(rows)} hot blocks)"]
    if not rows:
        lines.append("  (no samples)")
        return "\n".join(lines)
    peak = rows[0][0]
    for count, label, lo, hi in rows:
        pct = 100.0 * count / total
        bar = "#" * max(1, round(24 * count / peak))
        lines.append(f"  {label:<16} [{lo:>4}..{hi:>4}] "
                     f"{count:>7} {pct:6.2f}% {bar}")
    return "\n".join(lines)

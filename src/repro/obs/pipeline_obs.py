"""Hot-PC sampling of a fast-path simulation.

:class:`PipelineObserver` samples the static instruction index of every
*N*-th dynamic trace entry.  It reads the batch stream that
:class:`~repro.fastsim.functional.FastFunctionalSim` feeds
:class:`~repro.fastsim.timing.FastTimingSim`, passing each batch on
unchanged, so an observed run is the same fast simulation, with the same
statistics, as an unobserved one.  :func:`heat_report` buckets the
resulting histogram by the program's :func:`~repro.cfg.graph.build_cfg`
basic blocks.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class PipelineObserver:
    """Samples every *sample_interval*-th trace entry of one run.

    Pass as ``fastsim.backend.simulate(..., observer=...)``.  One observer
    observes one run; create a fresh one per simulation.
    """

    def __init__(self, sample_interval: int):
        self.sample_interval = sample_interval
        #: static instruction index -> number of samples landing on it
        self.pc_samples: dict[int, int] = {}
        #: dynamic trace entries seen so far, annulled ones included
        self.trace_entries = 0

    def sample(self, batches: Iterable[tuple]) -> Iterator[tuple]:
        """Pass ``(idxs, brs, mems, anns)`` batches through, sampling
        every N-th entry of ``idxs``, counted across batches."""
        interval = self.sample_interval
        samples = self.pc_samples
        for batch in batches:
            idxs = batch[0]
            # the first entry of this batch whose 1-based stream position
            # is a multiple of the interval
            first = (interval - 1 - self.trace_entries) % interval
            for idx in idxs[first::interval]:
                samples[idx] = samples.get(idx, 0) + 1
            self.trace_entries += len(idxs)
            yield batch


def heat_report(samples: dict[int, int], prog, name: str) -> str:
    """Render a hot-PC sample histogram as a per-basic-block heat table.

    *samples* maps static instruction indices (as collected by
    :class:`PipelineObserver`) to sample counts; blocks come from
    :func:`repro.cfg.graph.build_cfg` of the simulated program, whose
    blocks partition the instruction indices in layout order.  Blocks with no samples are omitted.  The heading
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

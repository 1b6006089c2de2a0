"""The paper's published evaluation numbers, as structured data.

Transcribed from Srinivas & Nicolau (IPPS 1998) Tables 3 and 4 so that
benchmarks can print side-by-side comparisons and EXPERIMENTS.md stays
checkable.  Scheme keys are table column names (:mod:`repro.core.schemes`).
"""

from __future__ import annotations

from typing import Mapping

from .runner import BenchmarkRun

#: Table 3 — % cycles the BR reservation buffer is full, per scheme.
PAPER_TABLE3_BR = {
    "compress": {"2bitBP": 13.91, "Proposed": 44.47, "PerfectBP": 64.8},
    "espresso": {"2bitBP": 9.05, "Proposed": 57.9, "PerfectBP": 64.8},
    "xlisp": {"2bitBP": 13.67, "Proposed": 48.2, "PerfectBP": 67.6},
    "grep": {"2bitBP": 13.75, "Proposed": 53.28, "PerfectBP": 69.21},
}

#: Table 4 — IPC per scheme.
PAPER_TABLE4_IPC = {
    "compress": {"2bitBP": 0.63, "Proposed": 1.16, "PerfectBP": 1.51},
    "espresso": {"2bitBP": 0.68, "Proposed": 1.36, "PerfectBP": 1.53},
    "xlisp": {"2bitBP": 0.61, "Proposed": 0.98, "PerfectBP": 1.33},
    "grep": {"2bitBP": 0.64, "Proposed": 1.25, "PerfectBP": 1.49},
}


def shape_verdicts(runs: Mapping[str, BenchmarkRun]) -> list[dict]:
    """Per-benchmark shape comparison against the paper.

    For each benchmark, reports whether the measured scheme ordering
    matches the paper's (IPC: 2bitBP < Proposed <= PerfectBP; BR occupancy
    non-decreasing across schemes), plus measured-vs-paper improvement
    factors.
    """
    out = []
    for name, run in runs.items():
        if name not in PAPER_TABLE4_IPC:
            continue
        if not run.ok:  # failed cells cannot be shape-compared
            continue
        paper_ipc = PAPER_TABLE4_IPC[name]
        measured_ipc = {s: run[s].stats.ipc for s in paper_ipc}
        paper_br = PAPER_TABLE3_BR[name]
        measured_br = {s: run[s].stats.queue_full_pct("br") for s in paper_br}

        def ordered(d):
            return d["2bitBP"] <= d["Proposed"] * 1.01 \
                and d["Proposed"] <= d["PerfectBP"] * 1.05

        out.append({
            "benchmark": name,
            "ipc_ordering_matches": ordered(measured_ipc),
            "paper_ipc_ordering": ordered(paper_ipc),
            "br_ordering_matches": measured_br["2bitBP"]
            <= measured_br["PerfectBP"] + 1e-9,
            "improvement_measured": measured_ipc["Proposed"]
            / measured_ipc["2bitBP"],
            "improvement_paper": paper_ipc["Proposed"] / paper_ipc["2bitBP"],
        })
    return out


def format_shape_verdicts(runs: Mapping[str, BenchmarkRun]) -> str:
    """Render the shape comparison as aligned text."""
    rows = shape_verdicts(runs)
    lines = ["Shape comparison against the paper",
             f"{'benchmark':<12} {'IPC order':>10} {'BR order':>9} "
             f"{'improv (meas)':>14} {'improv (paper)':>15}"]
    for r in rows:
        lines.append(
            f"{r['benchmark']:<12} "
            f"{'ok' if r['ipc_ordering_matches'] else 'MISMATCH':>10} "
            f"{'ok' if r['br_ordering_matches'] else 'MISMATCH':>9} "
            f"{r['improvement_measured']:>13.2f}x "
            f"{r['improvement_paper']:>14.2f}x")
    return "\n".join(lines)

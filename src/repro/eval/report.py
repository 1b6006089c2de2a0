"""Markdown report generation from a suite run.

``write_report`` produces a self-contained results document (the
machine-generated appendix of EXPERIMENTS.md): configuration, Tables 1-4,
improvement summary, and per-benchmark compilation trails.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Optional

from ..core import schemes
from ..sim.config import MachineConfig, R10K
from .runner import BenchmarkRun
from .tables import (
    _TABLE3, _TABLE4, _ordered, format_improvements, table1, table2, table3,
    table4,
)


def _md_table(headers: list[str], rows: list[list[str]]) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(row) + " |")
    return "\n".join(out)


def _md_per_column(rows: list[dict], fields) -> str:
    """Table 3 or 4 *rows* as markdown: one column per (scheme, field)."""
    names = [s.name for s in schemes.columns()]
    body = []
    for r in rows:
        row = [r["benchmark"]]
        for s in names:
            if "FAIL" in r[s]:
                row += [f"FAIL({r[s]['FAIL']})"] + ["—"] * (len(fields) - 1)
            else:
                row += [format(r[s][f], spec) for f, _, spec, _ in fields]
        body.append(row)
    return _md_table(
        ["benchmark"] + [f"{s} {f}" for s in names for f, *_ in fields],
        body)


def render_report(runs: Mapping[str, BenchmarkRun],
                  config: MachineConfig = R10K,
                  title: str = "Suite results") -> str:
    """Render the full results document as markdown."""
    parts: list[str] = [f"# {title}", ""]

    parts.append("## Machine configuration")
    parts.append("")
    parts.append(_md_table(
        ["parameter", "value"],
        [["fetch/dispatch/commit width",
          f"{config.fetch_width}/{config.dispatch_width}/{config.commit_width}"],
         ["int/addr/fp queues",
          f"{config.int_queue_size}/{config.addr_queue_size}/{config.fp_queue_size}"],
         ["branch buffer", str(config.branch_buffer_size)],
         ["active list (ROB)", str(config.rob_size)],
         ["physical/architectural registers",
          f"{config.phys_int_regs}/{config.arch_int_regs}"],
         ["BHT entries", str(config.bht_entries)],
         ["misprediction refill", str(config.misprediction_recovery)],
         ["I/D caches",
          f"{config.icache_size // 1024}KB/{config.dcache_size // 1024}KB, "
          f"{config.cache_line}B lines"]]))
    parts.append("")

    parts.append("## Table 1 — benchmark characteristics")
    parts.append("")
    parts.append(_md_table(
        ["benchmark", "dynamic instrs", "branch %", "predicted %"],
        [[r["benchmark"], f"FAIL({r['FAIL']})", "—", "—"]
         if "FAIL" in r else
         [r["benchmark"], f"{r['dynamic_instructions']:,}",
          f"{r['branch_pct']:.2f}", f"{r['predicted_pct']:.2f}"]
         for r in table1(runs)]))
    parts.append("")

    parts.append("## Table 2 — latencies")
    parts.append("")
    parts.append(_md_table(
        ["instruction", "latency"],
        [[r["instruction"], str(r["latency"])] for r in table2(config)]))
    parts.append("")

    parts.append("## Table 3 — reservation-station usage (% cycles full)")
    parts.append("")
    parts.append(_md_per_column(table3(runs), _TABLE3))
    parts.append("")

    parts.append("## Table 4 — functional-unit usage and IPC")
    parts.append("")
    parts.append(_md_per_column(table4(runs), _TABLE4))
    parts.append("")

    parts.append("## Headline")
    parts.append("")
    parts.append("```")
    parts.append(format_improvements(runs))
    parts.append("```")
    parts.append("")

    parts.append("## Compilation trails (Proposed scheme)")
    parts.append("")
    for name in _ordered(runs):
        cr = runs[name]["Proposed"].compile_result
        if cr is None:
            continue
        parts.append(f"### {name}")
        parts.append("")
        parts.append("```")
        parts.append(cr.summary())
        parts.append("```")
        parts.append("")
    return "\n".join(parts)


def write_report(runs: Mapping[str, BenchmarkRun], path: str | Path,
                 config: MachineConfig = R10K,
                 title: Optional[str] = None) -> Path:
    """Write the rendered report; returns the path written."""
    path = Path(path)
    path.write_text(render_report(runs, config,
                                  title or "Suite results") + "\n")
    return path

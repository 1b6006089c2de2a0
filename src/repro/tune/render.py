"""Text rendering of tune results for the ``repro tune`` CLI.

Two tables: the Pareto front over the three objectives, and the
per-workload winners next to the paper's global default vector — the
"learned vs. paper thresholds" comparison docs/TUNE.md describes.
"""

from __future__ import annotations

from .search import TuneResult, default_value


def _fmt_value(v) -> str:
    """Compact cell formatting (floats to 4 significant digits)."""
    if isinstance(v, bool) or not isinstance(v, float):
        return str(v)
    return f"{v:.4g}"


def _delta(params: dict) -> str:
    """Only the entries of *params* that differ from the paper default."""
    diffs = [f"{k}={_fmt_value(v)}" for k, v in sorted(params.items())
             if v != default_value(k)]
    return ", ".join(diffs) if diffs else "(paper defaults)"


def format_pareto(result: TuneResult) -> str:
    """The Pareto-front table of one search."""
    top = f"{result.spec.fidelities[-1]:g}"
    by_index = {c["index"]: c for c in result.candidates}
    lines = [f"Pareto front ({len(result.pareto)} of "
             f"{len(result.candidates)} candidates, "
             f"{result.evaluations} evaluations):",
             f"{'cand':>5} {'ipc':>7} {'growth':>7} {'cost':>6}  params"]
    for idx in result.pareto:
        cand = by_index[idx]
        agg = cand["rungs"][top]["aggregate"]
        lines.append(
            f"{idx:>5} {agg['ipc']:>7.3f} {agg['code_growth']:>7.3f} "
            f"{agg['compile_cost']:>6d}  {_delta(cand['params'])}")
    return "\n".join(lines)


def format_winners(result: TuneResult) -> str:
    """The per-workload learned-vs-paper-thresholds table."""
    lines = ["Per-workload winners (code growth within 5% of default):",
             f"{'workload':<12} {'tuned ipc':>9} {'default':>9} "
             f"{'gain':>7} {'growth':>7}  winning vector"]
    for bench in sorted(result.per_workload):
        w = result.per_workload[bench]
        lines.append(
            f"{bench:<12} {w['ipc']:>9.3f} {w['default_ipc']:>9.3f} "
            f"{w['ipc_gain_pct']:>6.2f}% {w['code_growth']:>7.3f}  "
            f"{_delta(w['params'])}")
    if not result.per_workload:
        lines.append("(none: no workload finished at full fidelity)")
    return "\n".join(lines)


def format_tune_result(result: TuneResult) -> str:
    """The full CLI report: front + winners + cache traffic."""
    traffic = (f"cells: {result.cells_hit} cache hits, "
               f"{result.cells_executed} executed")
    return "\n\n".join([format_pareto(result), format_winners(result),
                        traffic])

"""Table generation: the paper's Tables 1-4 from a suite run.

Each ``table_N`` function returns structured rows; ``format_table_N``
renders the same rows as aligned text matching the paper's layout.
"""

from __future__ import annotations

from typing import Mapping

from ..core import schemes
from ..sim.config import Latencies, MachineConfig, R10K
from .runner import BenchmarkRun

#: Paper benchmark order (Table 1).
PAPER_ORDER = ("compress", "espresso", "xlisp", "grep")


def _ordered(runs: Mapping[str, BenchmarkRun]) -> list[str]:
    known = [b for b in PAPER_ORDER if b in runs]
    extra = [b for b in runs if b not in PAPER_ORDER]
    return known + extra


def _fail_cell(reason: str, width: int) -> str:
    """Render a failed cell as ``FAIL(<reason>)`` fitted to *width*."""
    text = f"FAIL({reason})"
    if len(text) > width:
        text = text[:width - 4] + "...)"
    return f"{text:>{width}}"


# ---------------------------------------------------------------------------
# Table 1: benchmark characteristics
# ---------------------------------------------------------------------------


def table1(runs: Mapping[str, BenchmarkRun]) -> list[dict]:
    """Benchmark characteristics of the *baseline* binaries.

    Columns per the paper: dynamic instructions, % branch instructions in
    the dynamic stream (conditional + jumps), % correctly predicted
    branches under the 2-bit scheme.
    """
    rows = []
    for name in _ordered(runs):
        r = runs[name]["2bitBP"]
        if not r.ok:
            rows.append({"benchmark": name, "FAIL": r.failure or "unknown"})
            continue
        ex = r.exec_stats
        control = ex.branches + ex.jumps
        rows.append({
            "benchmark": name,
            "dynamic_instructions": ex.steps,
            "branch_pct": 100.0 * control / ex.steps if ex.steps else 0.0,
            "predicted_pct": 100.0 * r.stats.predictor.accuracy,
        })
    return rows


def format_table1(runs: Mapping[str, BenchmarkRun]) -> str:
    """Render Table 1 as aligned text."""
    lines = [
        "Table 1: Benchmark characteristics",
        f"{'Benchmark':<12} {'Dynamic':>12} {'Branch':>10} {'Correctly':>12}",
        f"{'':<12} {'instrs':>12} {'instrs %':>10} {'predicted %':>12}",
    ]
    for row in table1(runs):
        if "FAIL" in row:
            lines.append(f"{row['benchmark']:<12} "
                         + _fail_cell(row["FAIL"], 36))
            continue
        lines.append(
            f"{row['benchmark']:<12} {row['dynamic_instructions']:>12,} "
            f"{row['branch_pct']:>10.2f} {row['predicted_pct']:>12.2f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 2: latencies (a configuration echo)
# ---------------------------------------------------------------------------


def table2(config: MachineConfig = R10K) -> list[dict]:
    """The paper's Table 2: instruction latencies of the configuration."""
    lat: Latencies = config.latencies
    return [
        {"instruction": "alu", "latency": lat.alu},
        {"instruction": "ld/st", "latency": lat.ldst},
        {"instruction": "sft", "latency": lat.sft},
        {"instruction": "fp add", "latency": lat.fpadd},
        {"instruction": "fp mul", "latency": lat.fpmul},
        {"instruction": "fp div", "latency": lat.fpdiv},
        {"instruction": "cache miss penalty", "latency": lat.cache_miss_penalty},
    ]


def format_table2(config: MachineConfig = R10K) -> str:
    """Render Table 2 as aligned text."""
    lines = ["Table 2: Latencies",
             f"{'Instruction':<20} {'Latency':>8}"]
    for row in table2(config):
        lines.append(f"{row['instruction']:<20} {row['latency']:>8}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Tables 3 and 4: per-scheme occupancy, one column per scheme
# ---------------------------------------------------------------------------

#: Each column's fields in Table 3: (name, text width, number format,
#: value from the cell's SimStats).
_TABLE3 = (
    ("BR", 7, ".2f", lambda st: st.queue_full_pct("br")),
    ("LDST", 8, ".2f", lambda st: st.queue_full_pct("ldst")),
    ("ALU", 8, ".2f", lambda st: st.queue_full_pct("alu")),
)
#: ... and in Table 4.
_TABLE4 = (
    ("ALU", 7, ".2f", lambda st: st.unit_full_pct("alu")),
    ("LDST", 8, ".2f", lambda st: st.unit_full_pct("ldst")),
    ("SFT", 8, ".2f", lambda st: st.unit_full_pct("sft")),
    ("IPC", 7, ".3f", lambda st: st.ipc),
)


def _per_column(runs: Mapping[str, BenchmarkRun], fields) -> list[dict]:
    """One row per benchmark: each column's *fields*, or ``{"FAIL":
    reason}`` for a failed cell."""
    rows = []
    for name in _ordered(runs):
        row: dict = {"benchmark": name}
        for s in schemes.columns():
            r = runs[name][s.name]
            row[s.name] = ({f: value(r.stats) for f, _, _, value in fields}
                           if r.ok else {"FAIL": r.failure or "unknown"})
        rows.append(row)
    return rows


def _format_per_column(title: str, width: int, rows: list[dict],
                       fields) -> str:
    """Table 3 or 4 *rows* as aligned text, *width* per scheme heading."""
    names = [s.name for s in schemes.columns()]
    heads = "".join(f"{f:>{w}}" for f, w, _, _ in fields)
    lines = [
        title,
        f"{'Benchmark':<12}" + "".join(f" | {s:^{width}}" for s in names),
        f"{'':<12}" + " | ".join([""] + [heads for _ in names])[3:],
    ]
    for row in rows:
        cells = [_fail_cell(row[s]["FAIL"], len(heads)) if "FAIL" in row[s]
                 else "".join(f"{row[s][f]:>{w}{spec}}"
                              for f, w, spec, _ in fields)
                 for s in names]
        lines.append(f"{row['benchmark']:<12} | " + " | ".join(cells))
    return "\n".join(lines)


def table3(runs: Mapping[str, BenchmarkRun]) -> list[dict]:
    """% of commit cycles each reservation buffer (BR / LDST / ALU) was
    full, per scheme."""
    return _per_column(runs, _TABLE3)


def format_table3(runs: Mapping[str, BenchmarkRun]) -> str:
    """Render Table 3 as aligned text."""
    return _format_per_column(
        "Table 3: Reservation Station Usage Summary (% cycles full)", 23,
        table3(runs), _TABLE3)


def table4(runs: Mapping[str, BenchmarkRun]) -> list[dict]:
    """% of commit cycles each unit class (ALU / LDST / SFT) was saturated,
    plus IPC (excluding annulled), per scheme."""
    return _per_column(runs, _TABLE4)


def format_table4(runs: Mapping[str, BenchmarkRun]) -> str:
    """Render Table 4 as aligned text."""
    return _format_per_column(
        "Table 4: Functional Unit Usage Summary and IPC", 31, table4(runs),
        _TABLE4)


def format_improvements(runs: Mapping[str, BenchmarkRun]) -> str:
    """Headline summary: each labelled column's IPC over 2bitBP's (``-``
    where the column did not run), and the geomean of Proposed's."""
    labelled = [s for s in schemes.columns() if s.label is not None]
    lines = ["IPC improvement over the 2-bit baseline",
             f"{'Benchmark':<12}"
             + "".join(f" {s.label:>10}" for s in labelled)]
    ratios = []
    failed = 0
    for name in _ordered(runs):
        r = runs[name]
        if not r.ok:
            reason = r.failures[0].failure or "unknown"
            lines.append(f"{name:<12} {_fail_cell(reason, 32)}")
            failed += 1
            continue
        base = r["2bitBP"].stats.ipc
        cells = [r.results.get(s.name) for s in labelled]
        ratios.append(r.improvement)
        lines.append(f"{name:<12}" + "".join(
            f" {cell.stats.ipc / base:>9.2f}x" if cell is not None
            else f" {'-':>10}" for cell in cells))
    if ratios:
        lines.append(f"{'geo-mean':<12} "
                     f"{(_geomean(ratios)):>9.2f}x"
                     + (f"   ({failed} benchmark(s) FAILED, excluded)"
                        if failed else ""))
    return "\n".join(lines)


def _geomean(xs: list[float]) -> float:
    p = 1.0
    for x in xs:
        p *= x
    return p ** (1.0 / len(xs))

"""Experiment harness: the paper's scheme comparison and Tables 1-4."""

from .runner import (
    BenchmarkRun, SchemeResult, suite_failures, suite_to_dict,
)
from .paper_data import (
    PAPER_TABLE3_BR, PAPER_TABLE4_IPC, format_shape_verdicts, shape_verdicts,
)
from .report import render_report, write_report
from .tables import (
    PAPER_ORDER, format_improvements, format_table1, format_table2,
    format_table3, format_table4, table1, table2, table3, table4,
)

__all__ = [
    "PAPER_TABLE3_BR", "PAPER_TABLE4_IPC",
    "format_shape_verdicts", "shape_verdicts",
    "render_report", "write_report",
    "BenchmarkRun", "SchemeResult", "suite_failures", "suite_to_dict",
    "PAPER_ORDER", "format_improvements", "format_table1", "format_table2",
    "format_table3", "format_table4", "table1", "table2", "table3", "table4",
]

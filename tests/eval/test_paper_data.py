"""Paper-data tables and shape verdicts."""

import pytest

from repro.engine import run_suite
from repro.eval import (
    PAPER_TABLE3_BR, PAPER_TABLE4_IPC, format_shape_verdicts, shape_verdicts,
)

#: Table 1 — dynamic instructions (millions), branch %, predicted %.
PAPER_TABLE1 = {
    "compress": {"dynamic_millions": 0.41, "branch_pct": 20.81,
                 "predicted_pct": 91.98},
    "espresso": {"dynamic_millions": 786.58, "branch_pct": 19.26,
                 "predicted_pct": 94.57},
    "xlisp": {"dynamic_millions": 5256.53, "branch_pct": 23.12,
              "predicted_pct": 89.21},
    "grep": {"dynamic_millions": 0.31, "branch_pct": 22.28,
             "predicted_pct": 92.0},
}


def test_paper_tables_complete():
    benches = {"compress", "espresso", "xlisp", "grep"}
    assert set(PAPER_TABLE1) == benches
    assert set(PAPER_TABLE3_BR) == benches
    assert set(PAPER_TABLE4_IPC) == benches


def test_paper_ipc_ordering_internally_consistent():
    # The paper's own numbers satisfy the ordering we assert on ours.
    for name, row in PAPER_TABLE4_IPC.items():
        assert row["2bitBP"] < row["Proposed"] <= row["PerfectBP"], name


def test_paper_br_ordering():
    for name, row in PAPER_TABLE3_BR.items():
        assert row["2bitBP"] < row["Proposed"] < row["PerfectBP"], name


@pytest.fixture(scope="module")
def runs():
    return run_suite(scale=0.15)


def test_shape_verdicts(runs):
    verdicts = shape_verdicts(runs)
    assert len(verdicts) == 4
    for v in verdicts:
        assert v["ipc_ordering_matches"], v["benchmark"]
        assert v["paper_ipc_ordering"]
        assert v["improvement_measured"] > 0.99
        assert 1.5 <= v["improvement_paper"] <= 2.1


def test_format_shape_verdicts(runs):
    text = format_shape_verdicts(runs)
    assert "MISMATCH" not in text
    assert "compress" in text

"""Markdown report generation."""

import pytest

from repro.engine import run_suite
from repro.eval import render_report, write_report


@pytest.fixture(scope="module")
def runs():
    return run_suite(scale=0.15)


def test_render_contains_all_sections(runs):
    text = render_report(runs)
    for section in ("Machine configuration", "Table 1", "Table 2", "Table 3",
                    "Table 4", "Headline", "Compilation trails"):
        assert section in text


def test_render_contains_benchmarks(runs):
    text = render_report(runs)
    for name in ("compress", "espresso", "xlisp", "grep"):
        assert name in text


def test_write_report(tmp_path, runs):
    path = write_report(runs, tmp_path / "report.md", title="Test run")
    content = path.read_text()
    assert content.startswith("# Test run")
    # Valid markdown tables: every table row has balanced pipes.
    for line in content.splitlines():
        if line.startswith("|"):
            assert line.endswith("|")


def test_cli_report(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "r.md"
    assert main(["tables", "--scale", "0.1", "--report", str(out)]) == 0
    assert out.exists()
    assert "Table 4" in out.read_text()

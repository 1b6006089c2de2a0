"""CLI robustness: ``verify`` command and FAIL-cell table rendering."""

import pytest

from repro.__main__ import main
from repro.core import schemes as schemes_mod
from repro.engine import suite as suite_mod
from repro.isa import parse

TINY = """.text
main:
    li   r1, 0
    li   r2, 5
    li   r10, 0x50000
loop:
    addi r1, r1, 1
    bne  r1, r2, loop
    sw   r1, 0(r10)
    halt
"""


def test_verify_benchmark(capsys):
    assert main(["verify", "compress", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "proposed" in out
    assert "all clean" in out


def test_verify_file(tmp_path, capsys):
    f = tmp_path / "tiny.s"
    f.write_text(TINY)
    assert main(["verify", str(f)]) == 0
    out = capsys.readouterr().out
    assert "equivalence=proved" in out


def test_verify_unknown_program():
    with pytest.raises(SystemExit):
        main(["verify", "no-such-benchmark"])


@pytest.fixture
def _tiny_suite(monkeypatch):
    """Shrink the table suite to one tiny benchmark with a broken Proposed
    compile, so CLI isolation tests run in milliseconds."""
    monkeypatch.setattr(
        suite_mod, "benchmark_programs",
        lambda scale=1.0, seed=None: {"tiny": parse(TINY, name="tiny")})

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic mid-pass crash")

    monkeypatch.setattr(schemes_mod, "compile_proposed", boom)


def test_tables_with_failed_cell_exits_zero(_tiny_suite, capsys):
    assert main(["tables"]) == 0
    captured = capsys.readouterr()
    assert "FAIL(" in captured.out
    assert "warning: tiny/Proposed failed" in captured.err


def test_tables_strict_exits_nonzero(_tiny_suite, capsys):
    assert main(["tables", "--strict"]) == 2
    assert "FATAL" in capsys.readouterr().err

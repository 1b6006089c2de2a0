"""Documentation consistency checks."""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_isa_doc_is_current():
    """docs/ISA.md must match the generator's output (no drift)."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from gen_isa_doc import render
    finally:
        sys.path.pop(0)
    assert (ROOT / "docs" / "ISA.md").read_text() == render(), \
        "run: python tools/gen_isa_doc.py"


def test_required_documents_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/ISA.md",
                 "docs/INGEST.md"):
        path = ROOT / name
        assert path.exists() and path.stat().st_size > 500, name


def test_readme_doc_links_resolve():
    """Every docs/*.md referenced from README.md exists (no dead links —
    the ISSUE 10 regression: new docs must be committed with their
    cross-links)."""
    text = (ROOT / "README.md").read_text()
    referenced = set(re.findall(r"docs/[A-Za-z0-9_.-]+\.md", text))
    assert referenced, "README.md references no docs/*.md at all?"
    for ref in sorted(referenced):
        assert (ROOT / ref).exists(), f"README.md links missing file {ref}"


def test_ingest_doc_covers_the_contract():
    """docs/INGEST.md documents both formats, the lowering rules, and the
    golden-refresh workflow."""
    text = (ROOT / "docs" / "INGEST.md").read_text()
    for needle in ("@main", ".bril", "trace.jsonl", '"kind"', "br ",
                   "register", "r27", "--check", "--update-goldens",
                   "--import", "melded", "content hash"):
        assert needle in text, f"docs/INGEST.md missing {needle!r}"


def test_experiments_covers_all_artifacts():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for artifact in ("Figure 2", "Figure", "Table 1", "Table 2", "Table 3",
                     "Table 4", "2756", "3100", "ablation"):
        assert artifact.lower() in text.lower(), artifact


def test_design_lists_every_bench():
    text = (ROOT / "DESIGN.md").read_text()
    for bench in (ROOT / "benchmarks").glob("bench_*.py"):
        # Every bench is referenced from DESIGN.md or EXPERIMENTS.md.
        exp = (ROOT / "EXPERIMENTS.md").read_text()
        assert bench.name in text or bench.name in exp, bench.name


#: A repo path the prose may name: a bench record at the root, or a file
#: under one of the top-level directories.
REPO_PATH = re.compile(
    r"(?<![\w./-])(?:BENCH_[A-Za-z]+\.json"
    r"|(?:tools|docs|benchmarks|tests|perfbench|examples|src)/[\w./-]*?"
    r"\.(?:jsonl|json|bril|py|md|sh|s))\b")


def _path_naming_files():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                 ".claude/skills/verify/SKILL.md"):
        if (ROOT / name).exists():
            yield ROOT / name
    yield from sorted((ROOT / "docs").glob("*.md"))
    yield from sorted((ROOT / "src").rglob("*.py"))


def test_named_repo_paths_exist():
    """Every repo file the docs and docstrings name is there, so no
    sentence quotes a record or points at a test that is gone."""
    missing = sorted({f"{path.relative_to(ROOT)} names {name}"
                      for path in _path_naming_files()
                      for name in REPO_PATH.findall(path.read_text())
                      if not (ROOT / name).exists()})
    assert not missing, "\n".join(missing)

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


#: A CLI invocation in prose or a code block: the subcommand and the rest
#: of its line.
CLI_CALL = re.compile(r"(?:python -m repro|(?<![\w./-])repro) ([a-z]+)"
                      r"([^`\n]*)")


def _declared_flags() -> dict[str, set[str]]:
    """Subcommand, and subcommand plus action for a command with actions
    of its own (``cache stats``) -> the option strings its parsers
    declare."""
    import argparse

    from repro.__main__ import build_parser

    def actions(parser) -> dict:
        return next((action.choices for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction)), {})

    def flags(parser) -> set[str]:
        return {flag for action in parser._actions
                for flag in action.option_strings}

    declared = {}
    for name, parser in actions(build_parser()).items():
        declared[name] = flags(parser)
        for verb, sub in actions(parser).items():
            declared[f"{name} {verb}"] = declared[name] | flags(sub)
    return declared


def test_documented_cli_flags_are_declared():
    """Every ``repro <cmd> ... --flag`` the docs show is accepted by that
    subcommand, so no doc keeps a flag the CLI no longer has."""
    declared = _declared_flags()
    named = ["README.md", "DESIGN.md", "EXPERIMENTS.md",
             ".claude/skills/verify/SKILL.md"]
    paths = [ROOT / name for name in named if (ROOT / name).exists()]
    undeclared = set()
    for path in paths + sorted((ROOT / "docs").glob("*.md")):
        for command, rest in CLI_CALL.findall(path.read_text()):
            if command not in declared:
                continue
            # The line may go on to a pipe or another command.
            rest = re.split(r"\||;|&&|\brepro ", rest)[0]
            verb = f"{command} {(rest.split() or [''])[0]}"
            if verb in declared:
                command = verb
            for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", rest):
                if flag not in declared[command]:
                    undeclared.add(f"{path.relative_to(ROOT)}: "
                                   f"repro {command} {flag}")
    assert not undeclared, "\n".join(sorted(undeclared))


#: A python code block of a document, and a ``from repro... import``
#: statement in one (parenthesized across lines, or to the line's end).
PY_BLOCK = re.compile(r"```python\n(.*?)```", re.S)
FROM_IMPORT = re.compile(
    r"^[ \t]*from (repro[\w.]*) import (?:\(([^)]*)\)|([^\n#]+))", re.M)


def test_documented_python_imports_resolve():
    """Every ``from repro... import name`` a python example in the docs
    shows imports a name that exists, so no example keeps an API the
    package no longer has."""
    import importlib

    docs = [ROOT / name for name in ("README.md", "DESIGN.md",
                                     "EXPERIMENTS.md")]
    unresolved, seen = set(), 0
    for path in docs + sorted((ROOT / "docs").glob("*.md")):
        for block in PY_BLOCK.findall(path.read_text()):
            for module, paren, plain in FROM_IMPORT.findall(block):
                mod = importlib.import_module(module)
                for part in (paren or plain).split(","):
                    if not part.strip():
                        continue
                    name = part.split()[0]
                    seen += 1
                    if not hasattr(mod, name):
                        unresolved.add(f"{path.relative_to(ROOT)}: "
                                       f"from {module} import {name}")
    assert seen, "no documented imports found: the pattern is stale"
    assert not unresolved, "\n".join(sorted(unresolved))

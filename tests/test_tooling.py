"""The scripts under benchmarks/ and tools/ import against the package.

Neither directory is collected by the tier-1 run, so a public name
removed from ``repro`` would otherwise break them unnoticed.  Each
module is loaded under a name other than ``__main__``, so its command
line entry point does not run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "benchmarks").glob("*.py")) \
    + sorted((ROOT / "tools").glob("*.py"))


def test_scripts_found():
    names = {f"{p.parent.name}/{p.name}" for p in SCRIPTS}
    assert {"benchmarks/conftest.py", "tools/inject_faults.py"} <= names


@pytest.mark.parametrize("path", SCRIPTS,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_imports(path, monkeypatch):
    # Scripts may put their own directory or src/ on sys.path.
    monkeypatch.setattr(sys, "path", [str(path.parent)] + sys.path)
    name = f"_tooling_{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    assert module.__doc__, f"{path.name} lacks a module docstring"

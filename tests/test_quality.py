"""Repository-quality checks: public API documentation and exports."""

import ast
import importlib
import inspect
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro", "repro.isa", "repro.cfg", "repro.sim", "repro.profilefb",
    "repro.sched", "repro.transform", "repro.core", "repro.workloads",
    "repro.eval", "repro.robust", "repro.engine", "repro.qa",
    "repro.obs", "repro.api", "repro.serve", "repro.tune",
]


def _public_members(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in dir(mod) if not n.startswith("_")]
    for n in names:
        yield n, getattr(mod, n)


@pytest.mark.parametrize("pkg", PACKAGES)
def test_module_docstrings(pkg):
    mod = importlib.import_module(pkg)
    assert mod.__doc__ and mod.__doc__.strip(), f"{pkg} lacks a docstring"


@pytest.mark.parametrize("pkg", PACKAGES)
def test_all_exports_resolve(pkg):
    mod = importlib.import_module(pkg)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{pkg}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("pkg", PACKAGES)
def test_public_callables_documented(pkg):
    mod = importlib.import_module(pkg)
    undocumented = []
    for name, obj in _public_members(mod):
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if obj.__module__ is not None and \
                    not obj.__module__.startswith("repro"):
                continue  # re-exported stdlib/third-party
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, f"{pkg}: undocumented public API: {undocumented}"


def test_all_submodules_importable():
    count = 0
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        importlib.import_module(info.name)
        count += 1
    assert count >= 30  # the repository is not a stub


def test_version():
    assert repro.__version__


def _unused_imports(path: Path) -> list[tuple[int, str]]:
    """Names *path* imports but never reads (``__future__`` aside); a
    name listed in the module's ``__all__`` counts as read."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= {elt.value for elt in node.value.elts
                     if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_no_unused_imports_in_src():
    """No module imports a name it never reads (package ``__init__``
    modules, which import to re-export, are exempt)."""
    root = Path(repro.__file__).parent
    unused = [f"{path.relative_to(root)}:{line} {name}"
              for path in sorted(root.rglob("*.py"))
              if path.name != "__init__.py"
              for line, name in _unused_imports(path)]
    assert not unused, "\n".join(unused)


#: Where a name of ``src/repro`` may be read: every Python file of the
#: repository's code, tests, tools, benchmarks and examples, and the CI
#: workflows.
READER_GLOBS = ["src/**/*.py", "tests/**/*.py", "tools/**/*.py",
                "benchmarks/**/*.py", "examples/**/*.py",
                "perfbench/**/*.py", ".github/workflows/*.yml"]


def _top_level_names(tree: ast.Module):
    """``(line, name)`` of each public def, class and assignment at the
    top level of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield node.lineno, name


def test_no_unread_public_names_in_src():
    """Every public top-level name of a module is read somewhere other
    than its defining line: a name only a package ``__init__`` re-exports
    is dead code."""
    repo = Path(repro.__file__).parents[2]
    words = re.compile(r"\w+")
    reads = Counter()
    for pattern in READER_GLOBS:
        for path in repo.glob(pattern):
            if path.name != "__init__.py":
                reads.update(words.findall(path.read_text()))
    root = Path(repro.__file__).parent
    unread = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        for line, name in _top_level_names(ast.parse(text)):
            own = words.findall(lines[line - 1]).count(name)
            if reads[name] == own:
                unread.append(f"{path.relative_to(root)}:{line} {name}")
    assert not unread, "\n".join(unread)

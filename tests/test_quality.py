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


#: Where a name of ``src/repro`` may be read: the Python files of the
#: repository's code, tools, benchmarks and examples, and the CI
#: workflows.  Tests are not readers: code whose only client is its own
#: test is dead code.
READER_GLOBS = ["src/**/*.py", "tools/**/*.py", "benchmarks/**/*.py",
                "examples/**/*.py", "perfbench/**/*.py",
                ".github/workflows/*.yml"]

#: Test oracles: reference models that tests compare production output
#: against, and that no production path runs.
ORACLES = {
    "workloads.compress.compress_reference":
        "bit-exact Python model of the compress workload",
    "workloads.espresso.espresso_reference":
        "bit-exact Python model of the espresso workload",
    "workloads.grep.grep_reference":
        "bit-exact Python model of the grep workload",
    "workloads.xlisp.xlisp_reference":
        "bit-exact Python model of the xlisp workload",
    "workloads.xlisp.xlisp_opcode_counts":
        "the xlisp model's opcode counts, checked against simulated r18/r19",
    "fastsim.check.crosscheck":
        "runs the fast and reference simulators and compares their stats",
    "fastsim.check.crosscheck_cell":
        "the conformance comparison of one table cell across simulators",
    "robust.diffcheck.DIVERGENCE_KINDS":
        "the vocabulary tests check every divergence reason against",
    "robust.spectre.FINDING_KINDS":
        "the vocabulary tests check every Spectre finding against",
}

#: A string constant naming code to load, e.g. ``"repro.x:Class.method"``.
_TARGET = re.compile(r"[\w.]+:[\w.]+")


def _code_reads(node: ast.AST, package_init: bool):
    """Identifiers *node* reads: loaded names, attribute names, names
    imported from a module, and the words of ``"module:qualname"`` string
    constants.  In a package ``__init__`` the imports and ``__all__``
    re-export and are skipped."""
    if package_init and (
            isinstance(node, (ast.Import, ast.ImportFrom))
            or isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets)):
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.ImportFrom):
        yield from (alias.name for alias in node.names)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and _TARGET.fullmatch(node.value):
        yield from re.findall(r"\w+", node.value)
    for child in ast.iter_child_nodes(node):
        yield from _code_reads(child, package_init)


def _top_level_names(tree: ast.Module):
    """``(line, name)`` of each public def, class and assignment at the
    top level of a module, and of each public method of a public
    top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
            if isinstance(node, ast.ClassDef) \
                    and not node.name.startswith("_"):
                yield from ((m.lineno, m.name) for m in node.body
                            if isinstance(m, (ast.FunctionDef,
                                              ast.AsyncFunctionDef))
                            and not m.name.startswith("_"))
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
    """Every public top-level name of a module, and every public method
    of a public top-level class, is read by code other than tests (an
    identifier, not a word in a docstring or comment): a name that only
    tests or a package ``__init__``'s re-export read is dead code.  Only
    the :data:`ORACLES` are exempt."""
    repo = Path(repro.__file__).parents[2]
    reads = Counter()
    for pattern in READER_GLOBS:
        for path in repo.glob(pattern):
            text = path.read_text()
            if path.suffix == ".py":
                reads.update(_code_reads(ast.parse(text),
                                         path.name == "__init__.py"))
            else:
                reads.update(re.findall(r"\w+", text))
    root = Path(repro.__file__).parent
    defined, unread = set(), []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        for line, name in _top_level_names(ast.parse(path.read_text())):
            defined.add(f"{module}.{name}")
            if not reads[name] and f"{module}.{name}" not in ORACLES:
                unread.append(f"{path.relative_to(root)}:{line} {name}")
    assert not unread, "\n".join(unread)
    assert set(ORACLES) <= defined, set(ORACLES) - defined

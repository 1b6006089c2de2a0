"""Golden-file plumbing shared by ``repro ingest`` and ``tests/ingest``.

Every conformance fixture ``foo.bril`` (or ``foo.trace.jsonl``) has two
committed goldens next to it:

* ``foo.golden.s`` — the canonical print of the lowered
  :class:`~repro.isa.program.Program`, byte-exact;
* ``foo.stats.json`` — per-scheme ``stats``/``exec_stats`` of every
  table column (:func:`repro.core.schemes.columns`), byte-exact; the
  test asserts the suite's cells (the fast path) and the reference
  simulators, run on each cell's compiled program, both reproduce it.

The CLI's ``repro ingest --check`` replays the cheap ``.golden.s`` half
(CI gate); ``--update-goldens`` regenerates both after an intentional
lowering or scheme change.  Keeping the path math and the byte formats
here means the tests and the CLI can never drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Union

from ..core import serde
from ..isa.printer import format_program
from ..isa.program import Program
from .errors import LowerError
from .lower import SUFFIXES, import_path

#: Default dynamic budget for fixture stats (small imported kernels).
STATS_MAX_STEPS = 200_000


def fixture_stem(path: Union[str, Path]) -> Path:
    """*path* minus its recognised import suffix."""
    p = Path(path)
    for suffix in SUFFIXES:
        if p.name.endswith(suffix):
            return p.with_name(p.name[: -len(suffix)])
    raise LowerError(f"unknown import suffix on {p.name!r}")


def golden_path(path: Union[str, Path]) -> Path:
    return fixture_stem(path).with_suffix(".golden.s")


def stats_path(path: Union[str, Path]) -> Path:
    return fixture_stem(path).with_suffix(".stats.json")


def lowered_text(path: Union[str, Path]) -> str:
    """The byte-exact ``.golden.s`` content for one fixture."""
    prog = import_path(path)
    return f"# {prog.name}\n" + format_program(prog) + "\n"


def stats_text(prog: Program, *, max_steps: int = STATS_MAX_STEPS) -> str:
    """The byte-exact ``.stats.json`` content for one lowered program."""
    from ..engine.suite import run_suite

    run = run_suite(benchmarks={prog.name: prog}, max_steps=max_steps,
                    strict=True)[prog.name]
    schemes = {
        scheme: {"stats": r.stats.to_dict(),
                 "exec_stats": r.exec_stats.to_dict()}
        for scheme, r in sorted(run.results.items())
    }
    payload = {"schema_version": serde.SCHEMA_VERSION, "schemes": schemes}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def expand_fixtures(paths: Iterable[Union[str, Path]]) -> list[Path]:
    """Resolve files/directories to fixture files.

    Directories expand to every recognised import file inside them,
    sorted, skipping ``bad_*`` (committed adversarial inputs that must
    *fail* to import).
    """
    out: list[Path] = []
    for item in paths:
        p = Path(item)
        if p.is_dir():
            found = sorted(
                c for c in p.iterdir()
                if any(c.name.endswith(s) for s in SUFFIXES)
                and not c.name.startswith("bad_"))
            out.extend(found)
        else:
            out.append(p)
    return out


def check_fixture(path: Union[str, Path]) -> list[str]:
    """Replay one fixture against its ``.golden.s``; returns problems."""
    gp = golden_path(path)
    if not gp.exists():
        return [f"{gp}: golden missing (run with --update-goldens)"]
    got = lowered_text(path)
    want = gp.read_text()
    if got != want:
        return [f"{gp}: lowered output drifted from golden "
                f"(re-run with --update-goldens if intentional)"]
    return []


def update_fixture(path: Union[str, Path], *, stats: bool = True,
                   max_steps: int = STATS_MAX_STEPS) -> list[Path]:
    """(Re)write the goldens for one fixture; returns the paths written."""
    written = []
    gp = golden_path(path)
    gp.write_text(lowered_text(path))
    written.append(gp)
    if stats:
        sp = stats_path(path)
        sp.write_text(stats_text(import_path(path), max_steps=max_steps))
        written.append(sp)
    return written

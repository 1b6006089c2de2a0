"""Conformance: the fast path every run uses equals the reference
simulators, byte for byte, over the entire corpus the project already
trusts.

Coverage matrix:

* every workload-zoo program (``repro.workloads``, 0.05 scale — the same
  programs at reduced iteration counts, every opcode and control shape
  intact), and
* every checked-in fuzz reproducer (``tests/qa/corpus/*.s`` — programs
  that historically broke a compiler pass, i.e. the nastiest control
  flow we know of),

each compiled under **every declared compile** of the scheme table
(:mod:`repro.core.schemes`: the fuzzer's and the table columns', one case
per distinct compile) and simulated on both the fast path and the
reference simulators.
Equality is asserted on serde *payload dicts* (``SimStats.to_dict()`` /
``ExecStats.to_dict()`` / ``DiffReport.to_dict()``), not on summary
numbers: one flipped counter anywhere is a failure.
"""

import json
from pathlib import Path

import pytest

from repro.core import schemes
from repro.core.schemes import compile_scheme
from repro.engine.cells import CellSpec, execute_cell, overrides_as_items
from repro.eval.runner import SchemeResult
from repro.fastsim import crosscheck, crosscheck_cell
from repro.profilefb.profiledb import ProfileDB
from repro.qa.corpus import load_reproducer
from repro.sim import FunctionalSim, TimingSim
from repro.sim.config import r10k_config
from repro.workloads import benchmark_programs

MAX_STEPS = 5_000_000
SCALE = 0.05
CORPUS_DIR = Path(__file__).resolve().parent.parent / "qa" / "corpus"
CORPUS = sorted(p.name for p in CORPUS_DIR.glob("*.s"))
# One case per distinct compile, named by the fuzz row that declares it
# if any (2bitBP and PerfectBP compile as ``baseline``, Proposed as
# ``combined``).
_COMPILES: dict = {}
for _s in schemes.fuzz_plan() + schemes.SCHEMES:
    _COMPILES.setdefault(_s.overrides, _s.name)
SCHEMES = list(_COMPILES.values())

# Programs and profiles are cached per module: the matrix below reuses
# one parse/profile per program across its scheme cells.
_programs: dict = {}
_profiles: dict = {}


def _zoo_names():
    return sorted(benchmark_programs(scale=SCALE))


def _program(name):
    if name not in _programs:
        if name.endswith(".s"):
            _programs[name] = load_reproducer(CORPUS_DIR / name)
        else:
            _programs[name] = benchmark_programs(scale=SCALE)[name]
    return _programs[name]


def _profile(name):
    if name not in _profiles:
        try:
            _profiles[name] = ProfileDB.from_run(_program(name),
                                                 max_steps=MAX_STEPS)
        except Exception:  # noqa: BLE001 - corpus programs may trap
            _profiles[name] = None
    return _profiles[name]


def _assert_conformant(name, scheme):
    prog = _program(name)
    result = compile_scheme(prog, scheme, profile=_profile(name),
                            max_steps=MAX_STEPS)
    report = crosscheck_cell(result.program, r10k_config("twobit"),
                             max_steps=MAX_STEPS)
    payload = report.to_dict()
    assert report.equivalent, (
        f"{prog.name} under {scheme}: {report.reason}; "
        f"first mismatches: {report.mismatches[:3]}")
    # The report itself must be a stable serde payload (round-trips as
    # JSON) — it is what diffcheck harnesses archive.
    assert json.loads(json.dumps(payload)) == payload


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", _zoo_names())
def test_zoo_cell_conformance(name, scheme):
    _assert_conformant(name, scheme)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", CORPUS)
def test_corpus_cell_conformance(name, scheme):
    assert CORPUS, "qa corpus missing"
    _assert_conformant(name, scheme)


@pytest.mark.parametrize("name", _zoo_names() + CORPUS)
def test_functional_crosscheck_with_outcomes(name):
    # record_outcomes=True exercises the branch-outcome vectors and
    # branch_pc maps of ExecStats — the payload the profiler consumes.
    report = crosscheck(_program(name), max_steps=MAX_STEPS,
                        record_outcomes=True)
    assert report.equivalent, (report.reason, report.mismatches[:3])


@pytest.mark.parametrize("name", _zoo_names())
def test_profile_payloads_identical(name):
    # Profiling on the fast path must produce the same feedback the
    # compiler sees from the reference run — otherwise "identical
    # compiles" silently stops being true for every engine cell.
    prog = _program(name)
    ref = ProfileDB.from_run(prog, max_steps=MAX_STEPS)
    fast = ProfileDB.from_run(prog, max_steps=MAX_STEPS, backend="fast")
    assert ref.to_json() == fast.to_json()


@pytest.mark.parametrize("scheme", [s.name for s in schemes.columns()])
def test_engine_cell_payloads_byte_identical(scheme):
    # The engine-level contract: the exact payload dict the artifact
    # cache stores (stats + exec_stats + compile_result + failure) for
    # every table column equals the reference simulators' result: a
    # compile profiled on the reference, then simulated on it.
    prog = _program("grep")
    spec = CellSpec(benchmark="grep", scheme=scheme, program=prog.to_dict(),
                    config_overrides=overrides_as_items(None),
                    max_steps=MAX_STEPS, strict=True)
    fast = execute_cell(spec, program=prog).to_dict()
    cr = compile_scheme(prog, scheme, max_steps=MAX_STEPS)
    fsim = FunctionalSim(cr.program, max_steps=MAX_STEPS,
                         record_outcomes=False)
    stats = TimingSim(spec.resolve_config()).run(fsim.trace())
    ref = SchemeResult("grep", scheme, stats, fsim.stats, cr).to_dict()
    assert json.dumps(ref, sort_keys=True) == \
        json.dumps(fast, sort_keys=True)

"""Fastsim failure containment: a fast-path fault is a named FAIL cell.

The fast path's contract (``docs/FASTSIM.md``) is that whatever it
raises propagates out of :func:`repro.fastsim.backend.simulate`:

1. A *fast-path* fault (a crash inside the fast simulators, generated
   code that does not compile, stale decode tables) is never rerun on
   the reference interpreter. The engine's containment records it as a
   named ``FAIL(<Exception>: ...)`` cell on every executor, and no such
   cell is cached.
2. A *program-semantic* failure (``UnmodeledOpcode``, step budgets,
   alignment traps) is the reference's own exception, so the engine
   records the same ``FAIL(...)`` cell either simulator would.

No run takes the reference pair, an observed one included, so the
fallback trail stays empty.
"""

import traceback

import pytest

from repro.core.schemes import compile_scheme
from repro.engine import ArtifactCache, LocalExecutor, run_suite
from repro.engine.cells import CellSpec, _short_reason, execute_cell
from repro.fastsim import backend as fb
from repro.fastsim import codegen
from repro.fastsim.decode import DecodeError
from repro.fastsim.timing import FastTimingSim
from repro.obs import PipelineObserver
from repro.serve import ServeClient
from repro.sim.config import r10k_config
from repro.sim.functional import FunctionalSim, UnmodeledOpcode
from repro.sim.pipeline import TimingSim
from repro.workloads import benchmark_programs
from tests.serve.conftest import server  # noqa: F401 - fixture

MAX_STEPS = 5_000_000


def _runtime_crash(monkeypatch):
    def run(self, batches):
        raise KeyError("injected fast-path fault")

    monkeypatch.setattr(FastTimingSim, "run", run)
    return KeyError


def _bad_codegen(monkeypatch):
    monkeypatch.setattr(codegen, "generate_source",
                        lambda dec, *, record, trace:
                        ("this is ( not python\n", 0))
    return SyntaxError


def _stale_decode(monkeypatch):
    real = fb.decode_program
    # Tables of an equal-content copy: the identity half of the
    # staleness signature trips.
    monkeypatch.setattr(fb, "decode_program", lambda prog: real(prog.copy()))
    return DecodeError


#: fault name -> installer (monkeypatches the fast path, returns the
#: exception type the fault raises)
FAULTS = {"runtime-crash": _runtime_crash, "bad-codegen": _bad_codegen,
          "stale-decode": _stale_decode}


@pytest.fixture(scope="module")
def prog():
    return benchmark_programs(scale=0.05)["grep"]


@pytest.fixture(scope="module")
def reference(prog):
    fsim = FunctionalSim(prog, max_steps=MAX_STEPS, record_outcomes=False)
    stats = TimingSim(r10k_config("twobit")).run(fsim.trace())
    return stats.to_dict(), fsim.stats.to_dict()


@pytest.fixture(autouse=True)
def _clean_trail():
    fb.clear_fallback_trail()
    yield
    fb.clear_fallback_trail()


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fast_path_fault_propagates(fault, prog, monkeypatch):
    exc_type = FAULTS[fault](monkeypatch)
    # A copy: its decode tables and generated code are built afresh.
    with pytest.raises(exc_type):
        fb.simulate(prog.copy(), r10k_config("twobit"), max_steps=MAX_STEPS)
    assert fb.fallback_trail() == ()


@pytest.mark.parametrize("where", [1, 2, "serve"],
                         ids=["jobs=1", "jobs=2", "serve"])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fast_path_fault_fails_every_cell(fault, where, prog, monkeypatch,
                                          request, tmp_path):
    exc_type = FAULTS[fault](monkeypatch)
    # Forked pool workers inherit the patch; force the pool on one CPU.
    monkeypatch.setenv("REPRO_POOL_FORCE", "1")
    store = ArtifactCache(tmp_path / "local")
    if where == "serve":
        srv = request.getfixturevalue("server")
        executor = ServeClient(srv.url, tenant="faulty", timeout=60.0)
    else:
        executor = LocalExecutor(where)
    runs = run_suite(benchmarks={"grep": prog.copy()}, max_steps=MAX_STEPS,
                     executor=executor, cache=store)
    failures = [cell.failure for cell in runs["grep"].results.values()]
    assert len(failures) == 5
    assert all(f is not None and f.startswith(f"{exc_type.__name__}: ")
               for f in failures), failures
    assert store.stats()["entries"] == 0
    if where == "serve":
        assert executor.stats()["cache"]["entries"] == 0
    assert fb.fallback_trail() == ()


def test_observed_run_stays_on_the_fast_path(prog, reference,
                                             monkeypatch):
    # The sampler reads the fast batch stream: with the reference pair
    # broken, an observed run still returns the reference's results.
    def broken(*args, **kwargs):
        raise AssertionError("reference simulator used")

    monkeypatch.setattr(TimingSim, "run", broken)
    monkeypatch.setattr(FunctionalSim, "__init__", broken)
    observer = PipelineObserver(sample_interval=7)
    stats, exec_stats = fb.simulate(prog, r10k_config("twobit"),
                                    max_steps=MAX_STEPS, observer=observer)
    assert (stats.to_dict(), exec_stats.to_dict()) == reference
    assert sum(observer.pc_samples.values()) == observer.trace_entries // 7
    assert fb.fallback_trail() == ()


def test_clean_run_leaves_no_trail(prog, reference):
    stats, exec_stats = fb.simulate(prog, r10k_config("twobit"),
                                    max_steps=MAX_STEPS)
    assert (stats.to_dict(), exec_stats.to_dict()) == reference
    assert fb.fallback_trail() == ()


def test_unmodeled_opcode_fails_identically(prog):
    # Semantic faults are the reference's own exception.
    bad = prog.copy()
    idx = next(i for i, ins in enumerate(bad.instructions)
               if not ins.is_control and not ins.info.is_call)
    bad.instructions[idx].op = "__undocumented_op__"

    with pytest.raises(UnmodeledOpcode):
        fb.simulate(bad, r10k_config("twobit"), max_steps=MAX_STEPS)
    assert fb.fallback_trail() == ()  # a raise is not a fallback

    spec = CellSpec(benchmark="grep", scheme="2bitBP", program=bad.to_dict(),
                    max_steps=MAX_STEPS)
    cell = execute_cell(spec, program=bad).to_dict()
    assert cell["failure"].startswith("UnmodeledOpcode")
    assert cell["stats"] is None
    # The reference simulators fail the cell's compile with the same
    # exception, so the classified failure is the same either way.
    compiled = compile_scheme(bad, "2bitBP", max_steps=MAX_STEPS).program
    fsim = FunctionalSim(compiled, max_steps=MAX_STEPS, record_outcomes=False)
    with pytest.raises(UnmodeledOpcode) as info:
        TimingSim(r10k_config("twobit")).run(fsim.trace())
    assert cell["failure"] == _short_reason(info.value)
    last = cell["failure_detail"].strip().splitlines()[-1]
    assert last == "".join(traceback.format_exception_only(
        info.type, info.value)).strip()

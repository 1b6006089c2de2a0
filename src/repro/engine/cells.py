"""Evaluation cells: the unit of cached / parallel work.

One *cell* is one (benchmark, scheme) table entry: compile the program for
the scheme's pipeline kind, simulate it under the scheme's predictor, and
return statistics.  :class:`CellSpec` is a fully picklable description of
a cell (the program travels as printed assembly + data tables, because
:class:`~repro.isa.program.Program` objects are not picklable), and
:func:`execute_cell` is the only code that runs one: in-process for the
suite at every ``jobs`` value, ``Session.run_benchmark`` and the ingest
goldens, and inside pool workers, serve workers and tune.
:func:`cell_grid` builds a suite's specs and their cache keys for the
suite runner, the serve client and tune alike.

Containment: a cell that raises is retried once, then reported as a
failed :class:`~repro.eval.runner.SchemeResult` the tables render as
``FAIL(<reason>)``.  When ``timeout`` is set, each attempt is
additionally bounded by a :class:`_watchdog` timer that raises
:class:`CellTimeout` inside the executing thread — it works in *any*
thread (the service workers of :mod:`repro.serve` run cells on threads,
where the former ``SIGALRM`` scheme was a silent no-op), and a fired
watchdog is just another contained failure.  :class:`CellTimeout` is a
``BaseException``, so the compiler's and the fast simulator's own
``except Exception`` containment cannot turn a timeout into a baseline
fallback or a reference rerun that reports ok.

:data:`COUNTERS` counts every *actual* compile and simulation performed
in this process — the engine's warm-cache acceptance test asserts these
stay at zero when every cell hits the artifact cache.
"""

from __future__ import annotations

import ctypes
import threading
import traceback
from dataclasses import dataclass, replace
from typing import Optional

from ..core.heuristics import DEFAULT_HEURISTICS, FeedbackHeuristics
from ..core.pipeline import CompileResult, compile_baseline, compile_proposed
from ..isa.program import Program
from ..obs.metrics import REGISTRY
from ..obs.pipeline_obs import maybe_observer
from ..obs.trace import span as obs_span
from ..profilefb.profiledb import ProfileDB
from ..sim.config import MachineConfig, r10k_config
from ..sim.functional import ExecStats, FunctionalSim
from ..sim.pipeline import TimingSim
from ..sim.stats import SimStats
from .keys import KeyMemo, cell_key, program_digest

#: The paper's three schemes — plus the speculative-safety variant of the
#: proposed one (PR 6) and the branch-melding variant (``melded``: arms
#: flattened into native conditional-move selects, repro.transform.meld)
#: — as (scheme, pipeline kind, predictor) rows: the canonical plan the
#: suite, cache keys, and workers all share.
SCHEME_PLAN = (
    ("2bitBP", "base", "twobit"),
    ("Proposed", "prop", "twobit"),
    ("PerfectBP", "base", "perfect"),
    ("safe-speculative", "safe", "twobit"),
    ("melded", "meld", "twobit"),
)

#: Per-cell retry count before a failure is recorded (transient faults).
CELL_RETRIES = 1


@dataclass
class EngineCounters:
    """Process-local count of real compile/simulate executions."""

    compiles: int = 0
    simulates: int = 0

    def reset(self) -> None:
        """Zero both counters (test isolation)."""
        self.compiles = 0
        self.simulates = 0


#: Global execution counters of this process.  Worker processes keep their
#: own instance; the parent's counters therefore measure exactly the work
#: the parent performed (zero on a fully warm cache).
COUNTERS = EngineCounters()


class CellTimeout(BaseException):
    """A cell attempt exceeded its wall-clock budget.

    A ``BaseException`` so that no ``except Exception`` between the
    watchdog and :func:`execute_cell` (pass sandbox, profiling,
    fast-simulator fallback) can absorb it into a result.
    """


@dataclass(frozen=True)
class CellSpec:
    """Picklable description of one evaluation cell."""

    benchmark: str
    scheme: str
    kind: str                      # "base" | "prop" | "safe" | "meld"
    predictor: str                 # "twobit" | "perfect" | ...
    program: dict                  # Program.to_dict() payload
    heur: FeedbackHeuristics = DEFAULT_HEURISTICS
    config_overrides: tuple = ()   # sorted (field, value) pairs
    max_steps: int = 50_000_000
    timeout: Optional[float] = None
    strict: bool = False
    backend: str = "reference"     # "reference" | "fast" (repro.fastsim)

    def resolve_config(self) -> MachineConfig:
        """The fully resolved machine configuration of this cell."""
        return r10k_config(self.predictor, **dict(self.config_overrides))


def overrides_as_items(config_overrides: Optional[dict]) -> tuple:
    """Normalize a config-override dict into sorted picklable pairs."""
    return tuple(sorted((config_overrides or {}).items()))


def cell_grid(programs: dict[str, Program], heur: FeedbackHeuristics,
              config_overrides: Optional[dict], max_steps: int,
              backend: str, *, schemes: tuple = SCHEME_PLAN,
              timeout: Optional[float] = None, strict: bool = False,
              broken: Optional[dict[str, BaseException]] = None
              ) -> list[tuple[str, str, CellSpec, str]]:
    """The ``(benchmark, scheme, spec, cache key)`` grid of a suite.

    One cell per program and ``(scheme, kind, predictor)`` row of
    *schemes*, in program then row order.  Each program is printed once,
    and that payload is both every spec's ``program`` and the key's
    fingerprint; the keys equal :func:`~repro.engine.keys.cell_key`'s,
    with each program, the heuristics and each resolved config encoded
    once.  When *broken* is given, a program whose cells cannot be built
    is recorded there (name → exception) and left out; otherwise the
    exception propagates.
    """
    over_items = overrides_as_items(config_overrides)
    configs: dict[str, MachineConfig] = {}
    memo = KeyMemo()
    grid = []
    for name, prog in programs.items():
        try:
            payload = prog.to_dict()
            cells = []
            for scheme, kind, predictor in schemes:
                spec = CellSpec(
                    benchmark=name, scheme=scheme, kind=kind,
                    predictor=predictor, program=payload, heur=heur,
                    config_overrides=over_items, max_steps=max_steps,
                    timeout=timeout, strict=strict, backend=backend)
                config = configs.setdefault(predictor, spec.resolve_config())
                cells.append((name, scheme, spec, cell_key(
                    payload, scheme, heur, config, max_steps,
                    backend=backend, memo=memo)))
        except Exception as exc:  # noqa: BLE001 - printing/keying crash
            if broken is None:
                raise
            broken[name] = exc
            continue
        grid.extend(cells)
    return grid


def kind_heuristics(kind: str,
                    heur: FeedbackHeuristics) -> FeedbackHeuristics:
    """The heuristics a proposed-pipeline compile *kind* runs with.

    Kind ``"safe"`` is the proposed pipeline with the speculative-safety
    guard forced on (the safe-speculative scheme); kind ``"meld"`` forces
    branch melding in place of if-conversion (the melded scheme).
    """
    if kind == "safe":
        return replace(heur, spectre_safe=True)
    if kind == "meld":
        return replace(heur, enable_meld=True)
    return heur


def counted_compile(kind: str, prog: Program, heur: FeedbackHeuristics,
                    max_steps: int, backend: str = "reference",
                    profile: Optional[ProfileDB] = None) -> CompileResult:
    """Compile *prog* for a pipeline *kind*, incrementing the counter.

    Proposed-pipeline kinds run with :func:`kind_heuristics`.  *profile*
    skips their profiling run (:class:`BenchmarkMemo` shares one);
    ``backend="fast"`` runs the profiling on the generated-step executor
    (byte-identical profiles).
    """
    COUNTERS.compiles += 1
    REGISTRY.inc("engine.compiles")
    if kind == "base":
        return compile_baseline(prog)
    return compile_proposed(prog, heur=kind_heuristics(kind, heur),
                            max_steps=max_steps, backend=backend,
                            profile=profile)


def counted_simulate(prog: Program, config: MachineConfig,
                     max_steps: int,
                     backend: str = "reference") -> tuple[SimStats,
                                                          ExecStats]:
    """Functional + timing simulation, incrementing the counter.

    ``backend="fast"`` routes through :func:`repro.fastsim.backend.simulate`
    (decode-once + generated-step functional + event-bucket timing);
    results are byte-identical and fastsim-internal failures fall back to
    the reference path transparently.
    """
    COUNTERS.simulates += 1
    REGISTRY.inc("engine.simulates")
    if backend == "fast":
        from ..fastsim.backend import simulate as fast_simulate

        return fast_simulate(prog, config, max_steps=max_steps)
    fsim = FunctionalSim(prog, max_steps=max_steps, record_outcomes=False)
    tsim = TimingSim(config, observer=maybe_observer())
    stats = tsim.run(fsim.trace())
    return stats, fsim.stats


class BenchmarkMemo:
    """The work the cells of one benchmark share.

    * **One profile per (input program, ``heur.classify``, step budget,
      backend).**  The first proposed-pipeline compile profiles the input
      program inside its own ``pass.profile`` span; the later
      ``prop``/``safe``/``meld`` compiles receive that profile through
      ``compile_proposed(profile=)``.
    * **One compile per (input program, kind, heuristics, step budget,
      backend).**
    * **One simulation per (compiled-program digest, resolved machine
      config, step budget, backend).**  ``safe-speculative`` compiles to
      exactly the Proposed program whenever the Spectre guard fences
      nothing, so its cell replays nothing.

    The input program is keyed by object identity.  A profile counts by
    instruction uid and every ``Program.from_dict`` draws fresh uids, so
    a profile fits only the object it was taken from.  :meth:`program`
    builds each payload once, so cells that arrive as payloads share too.

    Only successes are kept: a compile or simulation that raised runs
    again for the next cell that needs it, and a failed profile leaves
    each compile to profile (and fail, with its own ``PassFailure`` and
    baseline fallback) by itself.  The caller makes one memo per
    benchmark.
    """

    def __init__(self) -> None:
        self._held: dict = {}      # id -> object, so no keyed id is reused
        self._programs: dict = {}
        self._profiles: dict = {}
        self._compiles: dict = {}
        self._sims: dict = {}

    def _id(self, obj) -> int:
        """``id(obj)``, kept unique by holding *obj* for the memo's life."""
        self._held[id(obj)] = obj
        return id(obj)

    def program(self, payload: dict) -> Program:
        """``Program.from_dict(payload)``, built once per payload object."""
        key = self._id(payload)
        prog = self._programs.get(key)
        if prog is None:
            prog = self._programs[key] = Program.from_dict(payload)
        return prog

    def cell(self, kind: str, config: MachineConfig, prog: Program,
             heur: FeedbackHeuristics, max_steps: int,
             backend: str) -> tuple:
        """``(CompileResult, SimStats, ExecStats)`` of one cell, through
        :func:`counted_compile` and :func:`counted_simulate`."""
        src = self._id(prog)
        ckey = (src, kind, heur, max_steps, backend)
        hit = self._compiles.get(ckey)
        if hit is None:
            pkey = (src, heur.classify, max_steps, backend)
            profile = self._profiles.get(pkey) if kind != "base" else None
            cr = counted_compile(kind, prog, heur, max_steps, backend,
                                 profile=profile)
            hit = self._compiles[ckey] = (cr, program_digest(cr.program))
            if cr.profile is not None:
                self._profiles.setdefault(pkey, cr.profile)
        cr, digest = hit
        skey = (digest, config, max_steps, backend)
        sim = self._sims.get(skey)
        if sim is None:
            sim = self._sims[skey] = counted_simulate(cr.program, config,
                                                      max_steps, backend)
        return (cr, *sim)


def _short_reason(exc: BaseException) -> str:
    """One-line classification of a cell failure for table rendering."""
    text = str(exc).splitlines()[0] if str(exc) else ""
    name = type(exc).__name__
    return f"{name}: {text}"[:80] if text else name


def _async_raise(thread_id: int, exc_type: type) -> bool:
    """Schedule *exc_type* to be raised inside the thread *thread_id*.

    Uses ``PyThreadState_SetAsyncExc``: the exception surfaces at the
    target thread's next bytecode boundary, which is exactly how the old
    ``SIGALRM`` handler behaved for the main thread — except this works
    for *any* Python thread.  Returns False when the interpreter refused
    (unknown thread id, or a restricted runtime without ``ctypes``
    access), in which case the attempt simply runs unbounded, matching
    the previous no-op fallback semantics.
    """
    try:
        n = ctypes.pythonapi.PyThreadState_SetAsyncExc(
            ctypes.c_ulong(thread_id), ctypes.py_object(exc_type))
    except (AttributeError, ValueError):
        return False
    if n > 1:  # somehow hit several states: undo rather than spray
        ctypes.pythonapi.PyThreadState_SetAsyncExc(
            ctypes.c_ulong(thread_id), None)
        return False
    return n == 1


class _watchdog:
    """Context manager bounding one cell attempt in any thread.

    Arms a :class:`threading.Timer` that raises :class:`CellTimeout`
    inside the *executing* thread when the budget elapses.  Unlike the
    former ``SIGALRM`` scheme this works off the main thread (service
    workers, pool shims) and on non-POSIX hosts.  A no-op when *seconds*
    is falsy.

    Disarming takes a lock shared with the timer callback, so once
    ``__exit__`` holds it no late timeout can fire.  A timeout scheduled
    just as the attempt ended — the thread had not reached a bytecode
    boundary yet — is withdrawn there, so it never surfaces in the
    caller's code after the attempt's result or exception.
    """

    def __init__(self, seconds: Optional[float]):
        self.seconds = float(seconds) if seconds else 0.0
        self._timer: Optional[threading.Timer] = None
        self._lock = threading.Lock()
        self._armed = False
        self._thread_id = 0
        self.fired = False

    def __enter__(self) -> "_watchdog":
        if not self.seconds:
            return self
        self._thread_id = threading.get_ident()

        def _fire() -> None:
            with self._lock:
                if not self._armed:
                    return
                self.fired = _async_raise(self._thread_id, CellTimeout)

        self._armed = True
        self._timer = threading.Timer(self.seconds, _fire)
        self._timer.daemon = True
        self._timer.start()
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._armed = False
            if self.fired:  # no-op unless still pending
                ctypes.pythonapi.PyThreadState_SetAsyncExc(
                    ctypes.c_ulong(self._thread_id), None)
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None


def execute_cell(spec: CellSpec, program: Optional[Program] = None,
                 memo: Optional[BenchmarkMemo] = None):
    """Run one cell; returns its :class:`~repro.eval.runner.SchemeResult`.

    *program* short-circuits payload deserialization when the caller
    already holds the Program (in-process fast path).  *memo* shares
    profiles, compiles and simulations across the cells of one benchmark
    (see :class:`BenchmarkMemo`).  Pool and serve workers serialize the
    result with ``to_dict``; in-process callers use it as is.

    With ``spec.strict`` the first exception propagates; otherwise the
    cell is retried once and then recorded as a failed result.  A
    :class:`CellTimeout` is contained like any other failure.
    """
    from ..eval.runner import SchemeResult

    with obs_span(f"cell.{spec.scheme}", benchmark=spec.benchmark,
                  scheme=spec.scheme) as sp:
        last: Optional[BaseException] = None
        memo = memo if memo is not None else BenchmarkMemo()
        for _ in range(CELL_RETRIES + 1):
            try:
                with _watchdog(spec.timeout):
                    prog = program if program is not None \
                        else memo.program(spec.program)
                    cr, stats, exec_stats = memo.cell(
                        spec.kind, spec.resolve_config(), prog, spec.heur,
                        spec.max_steps, spec.backend)
                return SchemeResult(spec.benchmark, spec.scheme, stats,
                                    exec_stats, cr)
            except (Exception, CellTimeout) as exc:  # noqa: BLE001
                if spec.strict:
                    raise
                last = exc
        sp.set("failure", _short_reason(last))
        detail = "".join(traceback.format_exception(
            type(last), last, last.__traceback__)[-4:])
        return SchemeResult(spec.benchmark, spec.scheme,
                            failure=_short_reason(last),
                            failure_detail=detail)

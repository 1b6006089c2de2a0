"""Evaluation cells: the unit of cached / parallel work.

One *cell* is one (benchmark, scheme) table entry: compile the program
under the scheme, simulate it under the scheme's predictor (both from
:mod:`repro.core.schemes`), and return statistics.  :class:`CellSpec` is
a fully picklable description of a cell (the program travels as printed
assembly + data tables, because
:class:`~repro.isa.program.Program` objects are not picklable), and
:func:`execute_cell` is the only code that runs one: in-process for the
suite at every ``jobs`` value (one-program suites and the ingest goldens
included), and inside pool workers, serve workers and tune.
:func:`cell_grid` builds a suite's specs and their cache keys for the
suite runner, the serve client and tune alike, and :data:`CELLS` is the
cell kind every executor runs them as (:mod:`repro.engine.pool`).

Containment: a cell that raises is retried once, then reported as a
failed :class:`~repro.eval.runner.SchemeResult` the tables render as
``FAIL(<reason>)``.  The one bound on a cell is its step budget
(``max_steps``, part of its key): the profiling run and the simulation
both stop there with ``StepBudgetExceeded``, a contained failure like
any other, so a program that never halts fails its cells
deterministically on every executor.

Cells simulate on :mod:`repro.fastsim` (:func:`counted_simulate`) and
profile on it (:class:`BenchmarkMemo`); nothing in a spec or a key
names a simulator.

:data:`COUNTERS` counts every *actual* compile and simulation performed
in this process — the engine's warm-cache acceptance test asserts these
stay at zero when every cell hits the artifact cache.
"""

from __future__ import annotations

import traceback
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from ..core import schemes
from ..core.heuristics import DEFAULT_HEURISTICS, FeedbackHeuristics
from ..core.pipeline import CompileResult
from ..isa.program import Program
from ..obs.trace import span as obs_span
from ..profilefb.profiledb import ProfileDB
from ..sim.config import MachineConfig, r10k_config
from ..sim.functional import ExecStats
from ..sim.stats import SimStats
from .keys import KeyMemo, cell_key, program_digest
from .pool import CellKind

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


@dataclass(frozen=True)
class CellSpec:
    """Picklable description of one evaluation cell; every field but
    ``benchmark`` and ``strict`` is in its key."""

    benchmark: str
    scheme: str                    # a table column (compile + predictor)
    program: dict                  # Program.to_dict() payload
    heur: FeedbackHeuristics = DEFAULT_HEURISTICS
    config_overrides: tuple = ()   # sorted (field, value) pairs
    max_steps: int = 50_000_000
    strict: bool = False

    def __post_init__(self) -> None:
        if schemes.get(self.scheme).predictor is None:
            raise ValueError(f"scheme {self.scheme!r} is not a table column")

    def resolve_config(self) -> MachineConfig:
        """The fully resolved machine configuration of this cell."""
        return r10k_config(schemes.get(self.scheme).predictor,
                           **dict(self.config_overrides))


def spec_key(spec: CellSpec, memo: Optional[KeyMemo] = None,
             config: Optional[MachineConfig] = None) -> str:
    """*spec*'s :func:`~repro.engine.keys.cell_key` (*config*: its
    resolved config, when the caller holds it)."""
    return cell_key(spec.program, spec.scheme, spec.heur,
                    config if config is not None else spec.resolve_config(),
                    spec.max_steps, memo=memo)


def overrides_as_items(config_overrides: Optional[dict]) -> tuple:
    """Normalize a config-override dict into sorted picklable pairs."""
    return tuple(sorted((config_overrides or {}).items()))


def cell_grid(programs: dict[str, Program], heur: FeedbackHeuristics,
              config_overrides: Optional[dict], max_steps: int, *,
              columns: Optional[tuple[str, ...]] = None,
              strict: bool = False,
              broken: Optional[dict[str, BaseException]] = None
              ) -> list[tuple[str, str, CellSpec, str]]:
    """The ``(benchmark, scheme, spec, cache key)`` grid of a suite.

    One cell per program and table column (the *columns* named, else
    all), in program then column order.  Each program is printed once,
    and that payload is both every spec's ``program`` and the key's
    fingerprint; the keys are :func:`spec_key`'s, with each program, the
    heuristics and each resolved config encoded once.  When *broken* is
    given, a program whose cells cannot be built is recorded there
    (name → exception) and left out; otherwise the exception propagates.
    """
    over_items = overrides_as_items(config_overrides)
    configs: dict[str, MachineConfig] = {}
    memo = KeyMemo()
    grid = []
    for name, prog in programs.items():
        try:
            payload = prog.to_dict()
            cells = []
            for scheme in columns or [s.name for s in schemes.columns()]:
                spec = CellSpec(
                    benchmark=name, scheme=scheme, program=payload,
                    heur=heur, config_overrides=over_items,
                    max_steps=max_steps, strict=strict)
                config = configs.setdefault(schemes.get(scheme).predictor,
                                            spec.resolve_config())
                cells.append((name, scheme, spec,
                              spec_key(spec, memo, config)))
        except Exception as exc:  # noqa: BLE001 - printing/keying crash
            if broken is None:
                raise
            broken[name] = exc
            continue
        grid.extend(cells)
    return grid


def counted_compile(scheme: str, prog: Program, heur: FeedbackHeuristics,
                    max_steps: int,
                    profile: Optional[ProfileDB] = None) -> CompileResult:
    """:func:`~repro.core.schemes.compile_scheme`, incrementing the
    counter.  *profile* is a proposed-pipeline compile's profile, which
    :class:`BenchmarkMemo` takes.
    """
    COUNTERS.compiles += 1
    return schemes.compile_scheme(prog, scheme, heur, profile=profile,
                                  max_steps=max_steps)


def counted_simulate(prog: Program, config: MachineConfig,
                     max_steps: int) -> tuple[SimStats, ExecStats]:
    """Functional + timing simulation, incrementing the counter.

    Runs :func:`repro.fastsim.backend.simulate` (decode-once +
    generated-step functional + event-bucket timing).  Whatever it
    raises fails the cell by name.
    """
    from ..fastsim.backend import simulate

    COUNTERS.simulates += 1
    return simulate(prog, config, max_steps=max_steps)


class BenchmarkMemo:
    """The work the cells of one benchmark share.

    * **One profile per (input program, ``classify`` config, step
      budget).**  The memo profiles the input program on the
      generated-step executor inside a ``pass.profile`` span, and every
      proposed-pipeline compile receives that profile through
      ``compile_proposed(profile=)``.
    * **One compile per (input program, compile, step budget)**: 2bitBP
      and PerfectBP share the baseline's.
    * **One simulation per (compiled-program digest, resolved machine
      config, step budget).**  ``safe-speculative`` compiles to
      exactly the Proposed program whenever the Spectre guard fences
      nothing, so its cell replays nothing.

    The input program is keyed by object identity.  A profile counts by
    instruction uid and every ``Program.from_dict`` draws fresh uids, so
    a profile fits only the object it was taken from.  :meth:`program`
    builds each payload once, so cells that arrive as payloads share too.

    Only successes are kept: a profile, compile or simulation that raised
    runs again for the next cell that needs it, so a profiling fault
    fails each proposed-pipeline cell by name.  The caller makes one memo
    per benchmark.
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

    def cell(self, scheme: str, config: MachineConfig, prog: Program,
             heur: FeedbackHeuristics, max_steps: int) -> tuple:
        """``(CompileResult, SimStats, ExecStats)`` of one cell, through
        :func:`counted_compile` and :func:`counted_simulate`."""
        src = self._id(prog)
        compiled = schemes.get(scheme).heuristics(heur)
        ckey = (src, compiled, max_steps)
        hit = self._compiles.get(ckey)
        if hit is None:
            profile = None
            if compiled is not None:
                pkey = (src, compiled.classify, max_steps)
                profile = self._profiles.get(pkey)
                if profile is None:
                    with obs_span("pass.profile", program=prog.name):
                        profile = ProfileDB.from_run(
                            prog, max_steps=max_steps,
                            config=compiled.classify, backend="fast")
                    self._profiles[pkey] = profile
            cr = counted_compile(scheme, prog, heur, max_steps,
                                 profile=profile)
            hit = self._compiles[ckey] = (cr, program_digest(cr.program))
        cr, digest = hit
        skey = (digest, config, max_steps)
        sim = self._sims.get(skey)
        if sim is None:
            sim = self._sims[skey] = counted_simulate(cr.program, config,
                                                      max_steps)
        return (cr, *sim)


def _short_reason(exc: BaseException) -> str:
    """One-line classification of a cell failure for table rendering."""
    text = str(exc).splitlines()[0] if str(exc) else ""
    name = type(exc).__name__
    return f"{name}: {text}"[:80] if text else name


def execute_cell(spec: CellSpec, program: Optional[Program] = None,
                 memo: Optional[BenchmarkMemo] = None):
    """Run one cell; returns its :class:`~repro.eval.runner.SchemeResult`.

    *program* short-circuits payload deserialization when the caller
    already holds the Program (in-process fast path).  *memo* shares
    profiles, compiles and simulations across the cells of one benchmark
    (see :class:`BenchmarkMemo`).  Pool and serve workers serialize the
    result with ``to_dict``; in-process callers use it as is.

    With ``spec.strict`` the first exception propagates; otherwise the
    cell is retried once and then recorded as a failed result.
    """
    from ..eval.runner import SchemeResult

    with obs_span(f"cell.{spec.scheme}", benchmark=spec.benchmark,
                  scheme=spec.scheme) as sp:
        last: Optional[BaseException] = None
        memo = memo if memo is not None else BenchmarkMemo()
        for _ in range(CELL_RETRIES + 1):
            try:
                prog = program if program is not None \
                    else memo.program(spec.program)
                cr, stats, exec_stats = memo.cell(
                    spec.scheme, spec.resolve_config(), prog, spec.heur,
                    spec.max_steps)
                return SchemeResult(spec.benchmark, spec.scheme, stats,
                                    exec_stats, cr)
            except Exception as exc:  # noqa: BLE001
                if spec.strict:
                    raise
                last = exc
        sp.set("failure", _short_reason(last))
        detail = "".join(traceback.format_exception(
            type(last), last, last.__traceback__)[-4:])
        return SchemeResult(spec.benchmark, spec.scheme,
                            failure=_short_reason(last),
                            failure_detail=detail)


def execute_cells(specs: list[CellSpec],
                  programs: Optional[dict[str, Program]] = None) -> list:
    """Run *specs* in this process; one ``SchemeResult`` per spec, in order.

    Each benchmark's cells share one :class:`BenchmarkMemo`; *programs*
    maps benchmark name to the caller's built program (a missing one is
    built once per payload by the memo).
    """
    memos: dict[str, BenchmarkMemo] = defaultdict(BenchmarkMemo)
    out = []
    for spec in specs:
        prog = (programs or {}).get(spec.benchmark)
        out.append(execute_cell(spec, program=prog,
                                memo=memos[spec.benchmark]))
    return out


def _encode_cell(result) -> dict:
    """A ``SchemeResult``'s payload."""
    return result.to_dict()


def _decode_cell(payload: dict):
    """The ``SchemeResult`` of a payload."""
    from ..eval.runner import SchemeResult

    return SchemeResult.from_dict(payload)


def cell_ok(payload: dict) -> bool:
    """Whether an evaluation-cell payload may be cached: no failure."""
    return payload.get("failure") is None


#: Evaluation cells as an executor runs them (see :class:`CellKind`).
CELLS = CellKind("cells", run=execute_cells, ok=cell_ok, key=spec_key,
                 encode=_encode_cell, decode=_decode_cell)

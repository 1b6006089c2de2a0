"""FastFunctionalSim: generated-step functional execution.

Drives the exec-compiled block functions from
:mod:`repro.fastsim.codegen` and exposes the same observable surface as
:class:`repro.sim.functional.FunctionalSim`:

* :meth:`run` → the same :class:`ExecStats` (every counter, branch
  outcome vector and ``branch_pc`` map byte-identical);
* :attr:`regs` / :attr:`fregs` / :attr:`ccregs` / :attr:`pc` /
  :attr:`index_counts` / :attr:`mem` for final-state comparison;
* :meth:`batches` — the trace stream, batched: instead of one
  ``TraceEntry`` object per step it yields ``(idxs, brs, mems, anns)``
  tuples (pc per step, taken flag per non-annulled branch, address per
  non-annulled memory op, absolute step index per annulled step), which
  is everything the timing model consumes.

Exactness around the edges:

* **Exceptions** raised by generated code (alignment faults, ``cvtfi``
  of nan/inf, ``swf`` pack errors) are repaired to the reference
  coordinates: the codegen stamps ``err = (pc, offset, blocklen, bid)``
  before every raising call, and :meth:`_drive` rewinds the partially
  executed block so ``self.pc``, ``stats.steps`` and ``index_counts``
  match what the reference interpreter would report, then re-raises.
* **Bail-out** paths — step-budget expiry mid-block, a ``jr`` into the
  middle of a block, a pc walking off a block boundary out of range, a
  block the emitter refused to specialize (unknown opcode, odd
  operands), or an empty program — hand off to a real
  :class:`FunctionalSim` seeded with the current architectural state
  *sharing this sim's Memory and ExecStats objects*, so
  ``StepBudgetExceeded`` / ``SimulationDiverged`` / ``UnmodeledOpcode``
  are raised by the original code paths with identical messages and
  coordinates.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional

from ..isa.program import Program
from ..sim.functional import ExecStats, FunctionalSim
from ..sim.memory import AlignmentError, Memory
from .codegen import get_compiled
from .decode import DecodedProgram, decode_program

#: Trace entries buffered per yielded batch.
FLUSH = 16384

#: Exception types the codegen marks with an ``err`` stamp; anything
#: else escaping generated code is an internal bug and propagates raw.
_REPAIRABLE = (AlignmentError, ValueError, OverflowError, struct.error)


class FastFunctionalSim:
    """Drop-in functional executor backed by per-block compiled code."""

    def __init__(self, prog: Program, max_steps: int = 20_000_000,
                 record_outcomes: bool = True,
                 decoded: Optional[DecodedProgram] = None):
        prog.validate()
        self.prog = prog
        self.max_steps = max_steps
        self.record_outcomes = record_outcomes
        self.decoded = decoded if decoded is not None else \
            decode_program(prog)
        self.decoded.check_stale(prog)
        self.mem = Memory()
        self.mem.load_image(prog.data_image)
        for addr, label in prog.code_refs.items():
            self.mem.write_word(addr, prog.target_index(label))
        self._R = [0] * 32
        self._R[29] = 0x7FFF_FF00
        self._F = [0.0] * 32
        self._C = [False] * 8
        self.pc = 0
        self.stats = ExecStats()
        self._bcounts = [0] * len(self.decoded.blocks)
        #: (first_pc, last_pc) of a partially executed block, from
        #: exception repair; folded into index_counts.
        self._partial: Optional[tuple] = None
        #: reference sub-simulator, once a bail-out handed off to it
        self._slow: Optional[FunctionalSim] = None

    # -- public API ----------------------------------------------------------

    def run(self) -> ExecStats:
        """Execute until halt; returns statistics."""
        for _ in self._drive(trace=False):
            pass
        return self.stats

    def batches(self) -> Iterator[tuple]:
        """Yield (idxs, brs, mems, anns) batches until halt."""
        return self._drive(trace=True)

    # -- state views (reference-shaped) --------------------------------------

    @property
    def regs(self) -> dict:
        if self._slow is not None:
            return self._slow.regs
        return {f"r{i}": self._R[i] for i in range(32)}

    @property
    def fregs(self) -> dict:
        if self._slow is not None:
            return self._slow.fregs
        return {f"f{i}": self._F[i] for i in range(32)}

    @property
    def ccregs(self) -> dict:
        if self._slow is not None:
            return self._slow.ccregs
        return {f"cc{i}": self._C[i] for i in range(8)}

    @property
    def index_counts(self) -> list:
        if self._slow is not None:
            return self._slow.index_counts
        return self._expand_counts()

    def _expand_counts(self) -> list:
        counts = [0] * self.decoded.n
        for bid, (s, e) in enumerate(self.decoded.blocks):
            c = self._bcounts[bid]
            if c:
                for pc in range(s, e):
                    counts[pc] += c
        if self._partial is not None:
            first, last = self._partial
            for pc in range(first, last + 1):
                counts[pc] += 1
        return counts

    # -- the drive loop ------------------------------------------------------

    def _drive(self, trace: bool) -> Iterator[tuple]:
        dec = self.decoded
        if not dec.n:            # no block to run: the reference reports it
            yield from self._slow_drive(0, trace, [], [], [], [])
            return
        compiled = get_compiled(dec, record=self.record_outcomes,
                                trace=trace)
        ns: dict = {}
        exec(compiled.code, ns)
        idxs: list = []
        brs: list = []
        mems: list = []
        anns: list = []
        ctx = {
            "mem": self.mem, "unpack": struct.unpack, "pack": struct.pack,
            "U32": struct.Struct("<I").unpack_from,
            "P32": struct.Struct("<I").pack,
            "R": self._R, "F": self._F, "C": self._C,
            "bcounts": self._bcounts,
            "BO": self.stats.branch_outcomes, "BP": self.stats.branch_pc,
            "block_at": dec.block_at, "max_steps": self.max_steps,
            "lens": [e - s for s, e in dec.blocks],
            "starts": [s for s, _ in dec.blocks],
            "flush": FLUSH,
            "idxs": idxs, "brs": brs, "mems": mems, "anns": anns,
        }
        drive, swap, snapshot = ns["_make"](ctx)
        while True:
            try:
                rc = drive()
            except BaseException as exc:
                snap = snapshot()
                err = snap["err"]
                if err is not None and isinstance(exc, _REPAIRABLE):
                    pc, k, blocklen, bid = err
                    snap["steps"] += k
                    self._absorb(snap)
                    self._bcounts[bid] -= 1
                    self._partial = (pc - k, pc)
                    self.pc = pc
                    if trace:
                        # block pcs were pre-extended; entries from the
                        # raising instruction on were never yielded by
                        # the reference either
                        del idxs[len(idxs) - (blocklen - k):]
                        if idxs:
                            yield (idxs, brs, mems, anns)
                else:
                    self._absorb(snap)
                raise
            if rc == 1:          # batch full (trace mode only)
                yield (idxs, brs, mems, anns)
                idxs, brs, mems, anns = [], [], [], []
                swap(idxs, brs, mems, anns)
                continue
            snap = snapshot()
            self._absorb(snap)
            if rc == 0:          # halt
                self.stats.halted = True
                self.pc = snap["bail_pc"]
                if trace and idxs:
                    yield (idxs, brs, mems, anns)
                return
            # rc == 2 (step budget) or rc == 3 (interpreter bail): the
            # reference takes over at bail_pc and raises/halts exactly
            # as it always did.
            yield from self._slow_drive(snap["bail_pc"], trace,
                                        idxs, brs, mems, anns)
            return

    def _absorb(self, snap: dict) -> None:
        st = self.stats
        st.steps = snap["steps"]
        st.annulled = snap["annulled"]
        st.branches = snap["branches"]
        st.taken_branches = snap["taken_branches"]
        st.jumps = snap["jumps"]
        st.loads = snap["loads"]
        st.stores = snap["stores"]
        st.div_by_zero = snap["div_by_zero"]
        st.fences = snap["fences"]

    # -- reference hand-off --------------------------------------------------

    def _make_slow(self, start_pc: int) -> FunctionalSim:
        sim = FunctionalSim.__new__(FunctionalSim)
        sim.prog = self.prog
        sim.max_steps = self.max_steps
        sim.record_outcomes = self.record_outcomes
        sim.mem = self.mem                      # shared: no copy
        sim.regs = {f"r{i}": self._R[i] for i in range(32)}
        sim.fregs = {f"f{i}": self._F[i] for i in range(32)}
        sim.ccregs = {f"cc{i}": self._C[i] for i in range(8)}
        sim.pc = start_pc
        sim.stats = self.stats                  # shared: counters continue
        sim.index_counts = self._expand_counts()
        sim._targets = dict(self.decoded.targets_map)
        return sim

    def _slow_drive(self, start_pc: int, trace: bool, idxs: list,
                    brs: list, mems: list, anns: list) -> Iterator[tuple]:
        sim = self._make_slow(start_pc)
        self._slow = sim
        stats = sim.stats
        it = sim.trace()
        while True:
            try:
                entry = next(it)
            except StopIteration:
                break
            except BaseException:
                self.pc = sim.pc
                if trace and idxs:
                    yield (idxs, brs, mems, anns)
                raise
            if not trace:
                continue
            idxs.append(entry.index)
            if entry.annulled:
                anns.append(stats.steps - 1)
            else:
                if entry.taken is not None:
                    brs.append(entry.taken)
                if entry.addr is not None:
                    mems.append(entry.addr)
            if len(idxs) >= FLUSH:
                yield (idxs, brs, mems, anns)
                idxs, brs, mems, anns = [], [], [], []
        self.pc = sim.pc
        if trace and idxs:
            yield (idxs, brs, mems, anns)

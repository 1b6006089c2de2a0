"""Functional (ISA-level) executor.

Runs a :class:`~repro.isa.program.Program` to completion, producing:

* the committed dynamic instruction trace (consumed by the trace-driven
  timing model in :mod:`repro.sim.pipeline`);
* per-branch outcome bit vectors (consumed by :mod:`repro.profilefb` — the
  paper's Section 5 instrumentation: "The previous branch outcomes are
  recorded using bit vectors");
* dynamic execution statistics (Table 1 columns).

Semantics notes
---------------
* Integer registers hold 32-bit two's-complement values (stored unsigned).
* ``r0`` reads as zero; writes to it are discarded.
* Code addresses are instruction indices; ``jal`` stores the return index.
* Guarded instructions whose predicate is false are *annulled*: they appear
  in the trace (they occupy machine resources) but have no effect, and the
  paper's IPC excludes them (Table 4, note 7).
* Division by zero yields 0 (and is counted), rather than trapping — the
  paper assumes "no inputs would cause any undesirable traps".
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterator, Optional

# repro.core.serde is imported lazily inside to_dict/from_dict: importing
# the core package at module level would close an import cycle
# (core -> sched -> transform -> profilefb -> sim).
from ..isa.instruction import Instruction
from ..isa.program import Program
from .memory import Memory

MASK32 = 0xFFFF_FFFF

#: Flat scalar fields shared by :meth:`ExecStats.to_dict`/``from_dict``.
_EXEC_FIELDS = (
    "steps", "annulled", "branches", "taken_branches", "jumps", "loads",
    "stores", "div_by_zero", "fences", "halted",
)


def to_signed(v: int) -> int:
    """Interpret a 32-bit value as signed."""
    v &= MASK32
    return v - (1 << 32) if v & 0x8000_0000 else v


def to_unsigned(v: int) -> int:
    """Truncate a value to its unsigned 32-bit representation."""
    return v & MASK32


class TraceEntry:
    """One committed (or annulled) dynamic instruction."""

    __slots__ = ("ins", "index", "taken", "annulled", "addr")

    def __init__(self, ins: Instruction, index: int,
                 taken: Optional[bool] = None, annulled: bool = False,
                 addr: Optional[int] = None):
        self.ins = ins
        self.index = index
        self.taken = taken
        self.annulled = annulled
        self.addr = addr

    def __repr__(self) -> str:
        extra = ""
        if self.taken is not None:
            extra = f" taken={self.taken}"
        if self.annulled:
            extra += " annulled"
        return f"<T@{self.index} {self.ins.op}{extra}>"


@dataclass
class ExecStats:
    """Aggregate results of a functional run."""

    steps: int = 0                     # dynamic instructions incl. annulled
    annulled: int = 0
    branches: int = 0                  # conditional branches executed
    taken_branches: int = 0
    jumps: int = 0
    loads: int = 0
    stores: int = 0
    div_by_zero: int = 0
    fences: int = 0                    # architectural no-ops, counted
    halted: bool = False
    #: per-branch outcome bit vectors, keyed by the branch Instruction uid
    branch_outcomes: dict[int, list[bool]] = field(default_factory=dict)
    #: static index (PC) of each traced branch uid
    branch_pc: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serializable form: exact round-trip via :meth:`from_dict`.

        Branch outcome vectors are keyed by instruction uid; JSON object
        keys must be strings, so uids are stringified on the way out and
        restored on the way back in.
        """
        from ..core import serde
        d = serde.dump_fields(self, _EXEC_FIELDS)
        d.update(
            branch_outcomes={str(uid): [bool(b) for b in bits]
                             for uid, bits in self.branch_outcomes.items()},
            branch_pc={str(uid): pc
                       for uid, pc in self.branch_pc.items()},
        )
        return serde.stamp(d)

    @classmethod
    def from_dict(cls, d: dict) -> "ExecStats":
        """Inverse of :meth:`to_dict` (schema-version checked)."""
        from ..core import serde
        serde.check(d, "ExecStats")
        return cls(
            branch_outcomes={int(uid): [bool(b) for b in bits]
                             for uid, bits in d["branch_outcomes"].items()},
            branch_pc={int(uid): pc for uid, pc in d["branch_pc"].items()},
            **serde.load_fields(d, _EXEC_FIELDS),
        )


class SimulationError(RuntimeError):
    """Base class for classified functional-simulation failures.

    Carries the program counter and step count at the point of failure so
    the sandbox and differential checker (:mod:`repro.robust`) can report
    *where* a transformed program went wrong, not just that it did.
    """

    def __init__(self, message: str, pc: int = -1, steps: int = 0):
        super().__init__(message)
        self.pc = pc
        self.steps = steps


class ExecutionLimitExceeded(SimulationError):
    """The program did not halt within ``max_steps``."""


class StepBudgetExceeded(ExecutionLimitExceeded):
    """The step-budget watchdog fired: the program ran too long.

    Subclasses :class:`ExecutionLimitExceeded` so existing callers keep
    working; new code should catch this (or :class:`SimulationError`).
    """


class SimulationDiverged(SimulationError):
    """Control flow escaped the program (PC left ``[0, len)``).

    Typically the result of a corrupted branch/jump target or a ``jr``
    through a register holding a non-code value.
    """


class UnmodeledOpcode(SimulationError):
    """An opcode with no interpreter case reached the simulator.

    Raised instead of silently mis-executing: an instruction that the
    opcode table admits but the interpreter does not model would otherwise
    fall through as a no-op and corrupt the differential baseline.  The
    fault taxonomy tracks this class as ``unknown-opcode``
    (:data:`repro.robust.faults.PROGRAM_FAULTS`).
    """


class FunctionalSim:
    """Interpreter for the MIPS-like ISA.

    Use :meth:`run` for statistics only, or :meth:`trace` to stream
    :class:`TraceEntry` objects (statistics accumulate as a side effect and
    are available afterwards in :attr:`stats`).
    """

    def __init__(self, prog: Program, max_steps: int = 20_000_000,
                 record_outcomes: bool = True):
        prog.validate()
        self.prog = prog
        self.max_steps = max_steps
        self.record_outcomes = record_outcomes
        self.mem = Memory()
        self.mem.load_image(prog.data_image)
        # Re-resolve data words holding code addresses (jump tables) against
        # the program's CURRENT label positions — transforms re-linearize.
        for addr, label in prog.code_refs.items():
            self.mem.write_word(addr, prog.target_index(label))
        self.regs: dict[str, int] = {f"r{i}": 0 for i in range(32)}
        self.fregs: dict[str, float] = {f"f{i}": 0.0 for i in range(32)}
        self.ccregs: dict[str, bool] = {f"cc{i}": False for i in range(8)}
        # Stack pointer near top of address space, word aligned.
        self.regs["r29"] = 0x7FFF_FF00
        self.pc = 0
        self.stats = ExecStats()
        #: dynamic execution count per static instruction index
        self.index_counts: list[int] = [0] * len(prog.instructions)
        self._targets = {i: prog.target_index(ins.target)
                         for i, ins in enumerate(prog.instructions)
                         if ins.target is not None}

    # -- public API -----------------------------------------------------------

    def run(self) -> ExecStats:
        """Execute until halt; returns statistics."""
        for _ in self.trace():
            pass
        return self.stats

    def trace(self) -> Iterator[TraceEntry]:
        """Yield one TraceEntry per dynamic instruction until halt."""
        prog = self.prog.instructions
        n = len(prog)
        stats = self.stats
        while True:
            if stats.steps >= self.max_steps:
                raise StepBudgetExceeded(
                    f"exceeded {self.max_steps} steps at pc={self.pc}",
                    pc=self.pc, steps=stats.steps)
            if not 0 <= self.pc < n:
                raise SimulationDiverged(
                    f"pc out of range: {self.pc} (program has {n} "
                    f"instructions, {stats.steps} steps executed)",
                    pc=self.pc, steps=stats.steps)
            ins = prog[self.pc]
            self.index_counts[self.pc] += 1
            entry = self._execute(ins)
            stats.steps += 1
            yield entry
            if ins.is_halt:
                stats.halted = True
                return

    # -- register access helpers ------------------------------------------------

    def read(self, reg: str) -> int:
        if reg[0] == "r":
            return self.regs[reg]
        if reg[0] == "f":
            raise TypeError(f"integer read of fp register {reg}")
        return int(self.ccregs[reg])

    def write(self, reg: str, value: int) -> None:
        if reg == "r0":
            return
        self.regs[reg] = value & MASK32

    # -- the interpreter ---------------------------------------------------------

    def _execute(self, ins: Instruction) -> TraceEntry:
        pc = self.pc
        stats = self.stats

        # Guard check: annulled instructions fall through with no effect.
        if ins.guard is not None:
            if self.ccregs[ins.guard.reg] != ins.guard.sense:
                stats.annulled += 1
                self.pc = pc + 1
                return TraceEntry(ins, pc, annulled=True)

        op = ins.op
        regs = self.regs
        taken: Optional[bool] = None
        addr: Optional[int] = None
        next_pc = pc + 1

        if op == "add":
            self.write(ins.dest, regs[ins.srcs[0]] + regs[ins.srcs[1]])
        elif op == "addi":
            self.write(ins.dest, regs[ins.srcs[0]] + ins.imm)
        elif op == "sub":
            self.write(ins.dest, regs[ins.srcs[0]] - regs[ins.srcs[1]])
        elif op == "subi":
            self.write(ins.dest, regs[ins.srcs[0]] - ins.imm)
        elif op == "mul":
            self.write(ins.dest,
                       to_signed(regs[ins.srcs[0]]) * to_signed(regs[ins.srcs[1]]))
        elif op == "muli":
            self.write(ins.dest, to_signed(regs[ins.srcs[0]]) * ins.imm)
        elif op == "div":
            a, b = to_signed(regs[ins.srcs[0]]), to_signed(regs[ins.srcs[1]])
            if b == 0:
                stats.div_by_zero += 1
                self.write(ins.dest, 0)
            else:
                self.write(ins.dest, int(a / b))  # truncate toward zero
        elif op == "rem":
            a, b = to_signed(regs[ins.srcs[0]]), to_signed(regs[ins.srcs[1]])
            if b == 0:
                stats.div_by_zero += 1
                self.write(ins.dest, 0)
            else:
                self.write(ins.dest, a - int(a / b) * b)
        elif op == "and":
            self.write(ins.dest, regs[ins.srcs[0]] & regs[ins.srcs[1]])
        elif op == "andi":
            self.write(ins.dest, regs[ins.srcs[0]] & (ins.imm & MASK32))
        elif op == "or":
            self.write(ins.dest, regs[ins.srcs[0]] | regs[ins.srcs[1]])
        elif op == "ori":
            self.write(ins.dest, regs[ins.srcs[0]] | (ins.imm & MASK32))
        elif op == "xor":
            self.write(ins.dest, regs[ins.srcs[0]] ^ regs[ins.srcs[1]])
        elif op == "xori":
            self.write(ins.dest, regs[ins.srcs[0]] ^ (ins.imm & MASK32))
        elif op == "nor":
            self.write(ins.dest, ~(regs[ins.srcs[0]] | regs[ins.srcs[1]]))
        elif op == "not":
            self.write(ins.dest, ~regs[ins.srcs[0]])
        elif op == "neg":
            self.write(ins.dest, -regs[ins.srcs[0]])
        elif op == "mov":
            self.write(ins.dest, regs[ins.srcs[0]])
        elif op == "li":
            self.write(ins.dest, ins.imm)
        elif op == "lui":
            self.write(ins.dest, ins.imm << 16)
        elif op in ("slt", "slti", "sltu", "seq", "sne", "sge", "sgt", "sle"):
            a = regs[ins.srcs[0]]
            b = ins.imm if op == "slti" else regs[ins.srcs[1]]
            if op in ("slt", "slti"):
                res = to_signed(a) < (b if op == "slti" else to_signed(b))
            elif op == "sltu":
                res = to_unsigned(a) < to_unsigned(b)
            elif op == "seq":
                res = a == b
            elif op == "sne":
                res = a != b
            elif op == "sge":
                res = to_signed(a) >= to_signed(b)
            elif op == "sgt":
                res = to_signed(a) > to_signed(b)
            else:  # sle
                res = to_signed(a) <= to_signed(b)
            self.write(ins.dest, int(res))
        elif op == "sll":
            self.write(ins.dest, regs[ins.srcs[0]] << (ins.imm & 31))
        elif op == "srl":
            self.write(ins.dest, (regs[ins.srcs[0]] & MASK32) >> (ins.imm & 31))
        elif op == "sra":
            self.write(ins.dest, to_signed(regs[ins.srcs[0]]) >> (ins.imm & 31))
        elif op == "sllv":
            self.write(ins.dest, regs[ins.srcs[0]] << (regs[ins.srcs[1]] & 31))
        elif op == "srlv":
            self.write(ins.dest,
                       (regs[ins.srcs[0]] & MASK32) >> (regs[ins.srcs[1]] & 31))
        elif op == "srav":
            self.write(ins.dest,
                       to_signed(regs[ins.srcs[0]]) >> (regs[ins.srcs[1]] & 31))

        # -- memory -------------------------------------------------------------
        elif op == "lw":
            addr = (regs[ins.srcs[0]] + ins.imm) & MASK32
            self.write(ins.dest, self.mem.read_word(addr))
            stats.loads += 1
        elif op == "lb":
            addr = (regs[ins.srcs[0]] + ins.imm) & MASK32
            v = self.mem.read_byte(addr)
            self.write(ins.dest, v - 256 if v & 0x80 else v)
            stats.loads += 1
        elif op == "lbu":
            addr = (regs[ins.srcs[0]] + ins.imm) & MASK32
            self.write(ins.dest, self.mem.read_byte(addr))
            stats.loads += 1
        elif op == "lh":
            addr = (regs[ins.srcs[0]] + ins.imm) & MASK32
            v = self.mem.read_half(addr)
            self.write(ins.dest, v - 65536 if v & 0x8000 else v)
            stats.loads += 1
        elif op == "lhu":
            addr = (regs[ins.srcs[0]] + ins.imm) & MASK32
            self.write(ins.dest, self.mem.read_half(addr))
            stats.loads += 1
        elif op == "sw":
            addr = (regs[ins.srcs[1]] + ins.imm) & MASK32
            self.mem.write_word(addr, regs[ins.srcs[0]])
            stats.stores += 1
        elif op == "sb":
            addr = (regs[ins.srcs[1]] + ins.imm) & MASK32
            self.mem.write_byte(addr, regs[ins.srcs[0]])
            stats.stores += 1
        elif op == "sh":
            addr = (regs[ins.srcs[1]] + ins.imm) & MASK32
            self.mem.write_half(addr, regs[ins.srcs[0]])
            stats.stores += 1

        # -- conditional branches --------------------------------------------------
        elif ins.is_branch:
            taken = self._branch_taken(ins)
            stats.branches += 1
            if taken:
                stats.taken_branches += 1
                next_pc = self._targets[pc]
            if self.record_outcomes:
                rec = stats.branch_outcomes.get(ins.uid)
                if rec is None:
                    rec = stats.branch_outcomes[ins.uid] = []
                    stats.branch_pc[ins.uid] = pc
                rec.append(taken)

        # -- jumps ---------------------------------------------------------------------
        elif op == "j":
            next_pc = self._targets[pc]
            stats.jumps += 1
        elif op == "jal":
            self.write("r31", pc + 1)
            next_pc = self._targets[pc]
            stats.jumps += 1
        elif op == "jr":
            next_pc = regs[ins.srcs[0]]
            stats.jumps += 1
        elif op == "jalr":
            t = regs[ins.srcs[0]]
            self.write(ins.dest, pc + 1)
            next_pc = t
            stats.jumps += 1

        # -- condition codes -----------------------------------------------------------
        elif op in ("cmpeq", "cmpne", "cmplt", "cmple", "cmpgt", "cmpge"):
            a, b = regs[ins.srcs[0]], regs[ins.srcs[1]]
            sa, sb = to_signed(a), to_signed(b)
            self.ccregs[ins.dest] = {
                "cmpeq": a == b, "cmpne": a != b, "cmplt": sa < sb,
                "cmple": sa <= sb, "cmpgt": sa > sb, "cmpge": sa >= sb,
            }[op]
        elif op == "cmpi":
            self.ccregs[ins.dest] = to_signed(regs[ins.srcs[0]]) < ins.imm
        elif op == "cand":
            self.ccregs[ins.dest] = self.ccregs[ins.srcs[0]] and self.ccregs[ins.srcs[1]]
        elif op == "cor":
            self.ccregs[ins.dest] = self.ccregs[ins.srcs[0]] or self.ccregs[ins.srcs[1]]
        elif op == "cxor":
            self.ccregs[ins.dest] = self.ccregs[ins.srcs[0]] != self.ccregs[ins.srcs[1]]
        elif op == "cnot":
            self.ccregs[ins.dest] = not self.ccregs[ins.srcs[0]]
        elif op == "cmov":
            self.ccregs[ins.dest] = self.ccregs[ins.srcs[0]]

        # -- conditional moves --------------------------------------------------------------
        elif op == "cmovt":
            if self.ccregs[ins.srcs[1]]:
                self.write(ins.dest, regs[ins.srcs[0]])
        elif op == "cmovf":
            if not self.ccregs[ins.srcs[1]]:
                self.write(ins.dest, regs[ins.srcs[0]])
        elif op == "movz":
            if regs[ins.srcs[1]] == 0:
                self.write(ins.dest, regs[ins.srcs[0]])
        elif op == "movn":
            if regs[ins.srcs[1]] != 0:
                self.write(ins.dest, regs[ins.srcs[0]])

        # -- floating point ---------------------------------------------------------------------
        elif op == "fadd":
            self.fregs[ins.dest] = self.fregs[ins.srcs[0]] + self.fregs[ins.srcs[1]]
        elif op == "fsub":
            self.fregs[ins.dest] = self.fregs[ins.srcs[0]] - self.fregs[ins.srcs[1]]
        elif op == "fmul":
            self.fregs[ins.dest] = self.fregs[ins.srcs[0]] * self.fregs[ins.srcs[1]]
        elif op == "fdiv":
            b = self.fregs[ins.srcs[1]]
            if b == 0.0:
                stats.div_by_zero += 1
                self.fregs[ins.dest] = 0.0
            else:
                self.fregs[ins.dest] = self.fregs[ins.srcs[0]] / b
        elif op == "fmov":
            self.fregs[ins.dest] = self.fregs[ins.srcs[0]]
        elif op == "fneg":
            self.fregs[ins.dest] = -self.fregs[ins.srcs[0]]
        elif op in ("fcmpeq", "fcmplt", "fcmple"):
            a, b = self.fregs[ins.srcs[0]], self.fregs[ins.srcs[1]]
            self.ccregs[ins.dest] = {
                "fcmpeq": a == b, "fcmplt": a < b, "fcmple": a <= b}[op]
        elif op == "lwf":
            addr = (regs[ins.srcs[0]] + ins.imm) & MASK32
            self.fregs[ins.dest] = struct.unpack(
                "<f", self.mem.read_bytes(addr, 4))[0]
            stats.loads += 1
        elif op == "swf":
            addr = (regs[ins.srcs[1]] + ins.imm) & MASK32
            self.mem.write_bytes(addr, struct.pack("<f", self.fregs[ins.srcs[0]]))
            stats.stores += 1
        elif op == "cvtif":
            self.fregs[ins.dest] = float(to_signed(regs[ins.srcs[0]]))
        elif op == "cvtfi":
            self.write(ins.dest, int(self.fregs[ins.srcs[0]]))

        elif op == "fence":
            # Architecturally a no-op (the barrier only constrains the
            # timing model); counted so safety-cost reports can show how
            # many barriers executed dynamically.
            stats.fences += 1
        elif op == "nop" or op == "halt":
            pass
        else:
            raise UnmodeledOpcode(
                f"opcode {op!r} reached the functional simulator but is "
                f"not modeled", pc=pc, steps=stats.steps)

        self.pc = next_pc
        return TraceEntry(ins, pc, taken=taken, addr=addr)

    def _branch_taken(self, ins: Instruction) -> bool:
        op = ins.op
        base = op[:-1] if ins.is_likely else op
        regs = self.regs
        if base in ("beq", "bne"):
            eq = regs[ins.srcs[0]] == regs[ins.srcs[1]]
            return eq if base == "beq" else not eq
        if base in ("bct", "bcf"):
            v = self.ccregs[ins.srcs[0]]
            return v if base == "bct" else not v
        v = to_signed(regs[ins.srcs[0]])
        if base == "blez":
            return v <= 0
        if base == "bgtz":
            return v > 0
        if base == "bltz":
            return v < 0
        if base == "bgez":
            return v >= 0
        if base == "beqz":
            return v == 0
        if base == "bnez":
            return v != 0
        raise NotImplementedError(f"branch {op}")  # pragma: no cover


def run_program(prog: Program, max_steps: int = 20_000_000) -> ExecStats:
    """Convenience: execute *prog* and return its statistics."""
    return FunctionalSim(prog, max_steps=max_steps).run()


def final_state(prog: Program, max_steps: int = 20_000_000) -> FunctionalSim:
    """Execute *prog* and return the simulator (registers + memory) for
    inspection — used by semantic-equivalence tests of the transforms."""
    sim = FunctionalSim(prog, max_steps=max_steps)
    sim.run()
    return sim

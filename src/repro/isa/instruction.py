"""The :class:`Instruction` object — one MIPS-like operation.

An instruction is the unit every substrate operates on: the parser builds
them, the CFG groups them, the schedulers reorder them, the transforms
rewrite them, and both simulators execute them.

Guarded execution support
-------------------------
Any instruction may carry a *guard*: a ``(cc_register, sense)`` pair.  A
guarded instruction executes only when the condition-code register holds
``sense``; otherwise it is annulled.  This models the paper's "fictional"
fully-predicated operations (Section 3), which both simulators execute
natively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from .opcodes import Fmt, OpInfo, opinfo
from .registers import ZERO_REG, is_register

_ids = itertools.count(1)


@dataclass(frozen=True)
class Guard:
    """A guard predicate: execute only if ``reg`` holds ``sense``."""

    reg: str
    sense: bool = True

    def negated(self) -> "Guard":
        return Guard(self.reg, not self.sense)

    def __str__(self) -> str:
        return f"({'' if self.sense else '!'}{self.reg})"


@dataclass
class Instruction:
    """One operation.

    Attributes:
        op: opcode name (must exist in :data:`repro.isa.opcodes.OPCODES`).
        dest: destination register or None.
        srcs: tuple of source registers (order is significant per format).
        imm: immediate operand (integers; also holds FP literals for ``li``).
        target: label name for control transfers.
        guard: optional :class:`Guard` predicate.
        uid: unique id, stable across copies made with :meth:`clone`
            (pass ``fresh_uid=True`` to renumber).
        ann: free-form annotation dictionary used by passes (e.g. the
            speculation pass marks inserted copies, the profiler keys branch
            records by the branch's uid).
    """

    op: str
    dest: Optional[str] = None
    srcs: tuple[str, ...] = ()
    imm: Optional[int] = None
    target: Optional[str] = None
    guard: Optional[Guard] = None
    uid: int = field(default_factory=lambda: next(_ids))
    ann: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Cache the opcode metadata: simulators consult it per dynamic
        # instruction, and the dict lookup dominated the profile.
        self._info = opinfo(self.op)  # also validates the opcode
        if self.dest is not None and not is_register(self.dest):
            raise ValueError(f"bad dest register {self.dest!r} in {self.op}")
        for s in self.srcs:
            if not is_register(s):
                raise ValueError(f"bad source register {s!r} in {self.op}")

    # -- static properties ---------------------------------------------------

    @property
    def info(self) -> OpInfo:
        return self._info

    @property
    def is_branch(self) -> bool:
        return self.info.is_branch

    @property
    def is_likely(self) -> bool:
        return self.info.is_likely

    @property
    def is_jump(self) -> bool:
        return self.info.is_jump

    @property
    def is_control(self) -> bool:
        return self.info.is_control

    @property
    def is_load(self) -> bool:
        return self.info.is_load

    @property
    def is_store(self) -> bool:
        return self.info.is_store

    @property
    def is_mem(self) -> bool:
        return self.info.is_load or self.info.is_store

    @property
    def is_halt(self) -> bool:
        return self.info.is_halt

    @property
    def is_guarded(self) -> bool:
        return self.guard is not None

    @property
    def is_cmov(self) -> bool:
        """True for conditional moves (partial writes of their destination)."""
        return self.op in ("cmovt", "cmovf", "movz", "movn")

    # -- def/use ---------------------------------------------------------------

    def defs(self) -> tuple[str, ...]:
        """Registers written by this instruction.

        Writes to ``r0`` are discarded by the machine and reported as no
        defs, so dataflow treats ``r0`` correctly as never-defined.
        """
        if self.dest is None or self.dest == ZERO_REG:
            return ()
        return (self.dest,)

    def uses(self) -> tuple[str, ...]:
        """Registers read by this instruction, including the guard register
        and — for conditional moves — the destination (its prior value may
        survive)."""
        regs = list(self.srcs)
        if self.is_cmov and self.dest is not None and self.dest != ZERO_REG:
            # A cmov that does not fire preserves dest: dest is live-in.
            regs.append(self.dest)
        if self.guard is not None:
            regs.append(self.guard.reg)
        return tuple(regs)

    def registers(self) -> Iterator[str]:
        """All registers mentioned (defs + uses), with duplicates."""
        yield from self.defs()
        yield from self.uses()

    # -- rewriting ---------------------------------------------------------------

    def clone(self, *, fresh_uid: bool = False, **overrides: Any) -> "Instruction":
        """Copy this instruction, optionally overriding fields.

        Annotations are shallow-copied so passes can mark clones
        independently.
        """
        kwargs: dict[str, Any] = dict(
            op=self.op, dest=self.dest, srcs=self.srcs, imm=self.imm,
            target=self.target, guard=self.guard, uid=self.uid,
            ann=dict(self.ann),
        )
        kwargs.update(overrides)
        if fresh_uid:
            kwargs["uid"] = next(_ids)
        return Instruction(**kwargs)

    def with_renamed_def(self, new_dest: str) -> "Instruction":
        """Clone with the destination renamed (software renaming)."""
        if self.dest is None:
            raise ValueError(f"instruction has no destination: {self}")
        return self.clone(dest=new_dest, fresh_uid=True)

    def with_substituted_uses(self, mapping: dict[str, str]) -> "Instruction":
        """Clone with source registers rewritten through *mapping*.

        The guard register and the implicit cmov dest-use are NOT rewritten:
        forward substitution only touches data sources.
        """
        new_srcs = tuple(mapping.get(s, s) for s in self.srcs)
        if new_srcs == self.srcs:
            return self
        return self.clone(srcs=new_srcs, fresh_uid=True)

    def guarded(self, guard: Guard) -> "Instruction":
        """Clone with a guard attached (conjoined is not supported — the
        if-converter materializes conjunctions into a fresh cc register)."""
        if self.guard is not None:
            raise ValueError(f"instruction already guarded: {self}")
        return self.clone(guard=guard, fresh_uid=True)

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        from .printer import format_instruction

        return format_instruction(self)

    def __repr__(self) -> str:
        return f"<I{self.uid} {self}>"


# -- constructors --------------------------------------------------------------


def make(op: str, *operands: Any, guard: Optional[Guard] = None,
         **ann: Any) -> Instruction:
    """Build an instruction from positional operands in assembly order.

    The operand order matches the textual assembly for each format, e.g.::

        make("add", "r1", "r2", "r3")      # add r1, r2, r3
        make("addi", "r1", "r2", 4)        # addi r1, r2, 4
        make("lw", "r1", 8, "r2")          # lw r1, 8(r2)
        make("sw", "r1", 8, "r2")          # sw r1, 8(r2)
        make("beq", "r1", "r2", "L1")      # beq r1, r2, L1
        make("j", "L1")
        make("cmpeq", "cc0", "r1", "r2")
        make("cmovt", "r1", "r2", "cc0")
    """
    info = opinfo(op)
    fmt = info.fmt
    d: Optional[str] = None
    srcs: tuple[str, ...] = ()
    imm: Optional[int] = None
    target: Optional[str] = None

    def need(n: int) -> None:
        if len(operands) != n:
            raise ValueError(f"{op} ({fmt.value}) expects {n} operands, got "
                             f"{len(operands)}: {operands!r}")

    if fmt == Fmt.RRR:
        need(3); d, srcs = operands[0], (operands[1], operands[2])
    elif fmt == Fmt.RRI:
        need(3); d, srcs, imm = operands[0], (operands[1],), int(operands[2])
    elif fmt == Fmt.RI:
        need(2); d, imm = operands[0], int(operands[1])
    elif fmt == Fmt.RR:
        need(2); d, srcs = operands[0], (operands[1],)
    elif fmt == Fmt.LOAD:
        need(3); d, imm, srcs = operands[0], int(operands[1]), (operands[2],)
    elif fmt == Fmt.STORE:
        need(3); imm = int(operands[1]); srcs = (operands[0], operands[2])
    elif fmt == Fmt.BRANCH2:
        need(3); srcs, target = (operands[0], operands[1]), operands[2]
    elif fmt == Fmt.BRANCH1:
        need(2); srcs, target = (operands[0],), operands[1]
    elif fmt == Fmt.JUMP:
        need(1); target = operands[0]
        if info.is_call:
            d = "r31"
    elif fmt == Fmt.JR:
        need(1); srcs = (operands[0],)
    elif fmt == Fmt.JALR:
        need(2); d, srcs = operands[0], (operands[1],)
    elif fmt == Fmt.CMP:
        if op == "cmpi":
            need(3); d, srcs, imm = operands[0], (operands[1],), int(operands[2])
        else:
            need(3); d, srcs = operands[0], (operands[1], operands[2])
    elif fmt == Fmt.CCLOGIC2:
        need(3); d, srcs = operands[0], (operands[1], operands[2])
    elif fmt == Fmt.CCLOGIC1:
        need(2); d, srcs = operands[0], (operands[1],)
    elif fmt == Fmt.CMOVCC:
        need(3); d, srcs = operands[0], (operands[1], operands[2])
    elif fmt == Fmt.CMOVR:
        need(3); d, srcs = operands[0], (operands[1], operands[2])
    elif fmt == Fmt.NONE:
        need(0)
    else:  # pragma: no cover - exhaustive
        raise AssertionError(f"unhandled format {fmt}")

    return Instruction(op=op, dest=d, srcs=srcs, imm=imm, target=target,
                       guard=guard, ann=dict(ann))

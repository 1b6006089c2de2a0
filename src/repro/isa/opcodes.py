"""Opcode table for the MIPS-like ISA.

Each opcode carries:

* ``fmt`` — the operand format used by the parser/printer and by generic
  def/use extraction (see :mod:`repro.isa.instruction`);
* ``unit`` — the functional-unit class that executes it in the timing
  simulator (``alu``, ``shift``, ``mem``, ``branch``, ``fpadd``, ``fpmul``,
  ``fpdiv``, ``none``);
* ``latency_class`` — which row of the paper's Table 2 supplies its latency
  (``alu`` 1, ``ldst`` 2, ``sft`` 1, ``fpadd``/``fpmul``/``fpdiv`` 3).

Branch-likely opcodes (``beql`` etc.) mirror the R10000 instructions the
paper leans on: they are *always predicted taken*, consume no branch-history
counter and no branch-target-buffer entry (paper Section 3).  One deliberate
simplification, documented in DESIGN.md: our ISA has no branch delay slots,
so the "annulled delay slot" aspect of branch-likelies is not modeled — only
their prediction semantics, which is what the paper's evaluation measures.

Guarded ("fictional", paper Section 3) instructions are not separate opcodes:
any instruction may carry a guard predicate; see
:class:`repro.isa.instruction.Instruction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Fmt(str, Enum):
    """Operand formats.

    The format string determines how ``Instruction.dest``, ``srcs``, ``imm``
    and ``target`` are populated and printed.
    """

    RRR = "rrr"          # op rd, rs, rt
    RRI = "rri"          # op rd, rs, imm
    RI = "ri"            # op rd, imm
    RR = "rr"            # op rd, rs
    LOAD = "load"        # op rd, imm(rs)
    STORE = "store"      # op rt, imm(rs)      (rt is a source)
    BRANCH2 = "branch2"  # op rs, rt, label
    BRANCH1 = "branch1"  # op rs, label
    JUMP = "jump"        # op label
    JR = "jr"            # op rs
    JALR = "jalr"        # op rd, rs
    CMP = "cmp"          # op cc, rs, rt       (cc destination)
    CCLOGIC2 = "cclogic2"  # op cc, cc, cc
    CCLOGIC1 = "cclogic1"  # op cc, cc
    CMOVCC = "cmovcc"    # op rd, rs, cc       (move rs->rd if cc true/false)
    CMOVR = "cmovr"      # op rd, rs, rt       (move rs->rd if rt ==/!= 0)
    NONE = "none"        # op


class Unit(str, Enum):
    """Functional-unit classes (R10000-style, paper Section 6)."""

    ALU = "alu"
    SHIFT = "shift"
    MEM = "mem"
    BRANCH = "branch"
    FPADD = "fpadd"
    FPMUL = "fpmul"
    FPDIV = "fpdiv"
    NONE = "none"


@dataclass(frozen=True)
class OpInfo:
    """Static properties of one opcode."""

    name: str
    fmt: Fmt
    unit: Unit
    latency_class: str
    is_branch: bool = False
    is_likely: bool = False
    is_jump: bool = False
    is_load: bool = False
    is_store: bool = False
    is_call: bool = False
    is_return: bool = False
    is_halt: bool = False
    is_fence: bool = False

    @property
    def is_control(self) -> bool:
        """True for any control-transfer instruction."""
        return self.is_branch or self.is_jump or self.is_halt

    @property
    def has_btb_entry(self) -> bool:
        """Whether the branch can live in the branch target buffer.

        Per the paper (Section 6, "perfect branch prediction" discussion):
        only branches whose target address is absolute are registered in the
        BTB — subroutine calls through registers, returns and
        register-relative jumps are not.  Branch-likelies are always
        predicted taken and also hold no BTB entry.
        """
        if self.is_likely:
            return False
        if self.is_branch:
            return True
        # Direct jumps/calls have absolute targets.
        return self.is_jump and self.fmt == Fmt.JUMP


_TABLE: dict[str, OpInfo] = {}


def _op(name: str, fmt: Fmt, unit: Unit, lat: str, **flags) -> None:
    if name in _TABLE:
        raise ValueError(f"duplicate opcode {name}")
    _TABLE[name] = OpInfo(name=name, fmt=fmt, unit=unit, latency_class=lat, **flags)


# --- integer ALU -----------------------------------------------------------
for _name in ("add", "sub", "and", "or", "xor", "nor", "mul", "div", "rem",
              "slt", "sltu", "seq", "sne", "sge", "sgt", "sle"):
    _op(_name, Fmt.RRR, Unit.ALU, "alu")
for _name in ("addi", "subi", "andi", "ori", "xori", "slti", "muli"):
    _op(_name, Fmt.RRI, Unit.ALU, "alu")
_op("li", Fmt.RI, Unit.ALU, "alu")
_op("lui", Fmt.RI, Unit.ALU, "alu")
_op("mov", Fmt.RR, Unit.ALU, "alu")
_op("neg", Fmt.RR, Unit.ALU, "alu")
_op("not", Fmt.RR, Unit.ALU, "alu")

# --- shifter ---------------------------------------------------------------
for _name in ("sll", "srl", "sra"):
    _op(_name, Fmt.RRI, Unit.SHIFT, "sft")
for _name in ("sllv", "srlv", "srav"):
    _op(_name, Fmt.RRR, Unit.SHIFT, "sft")

# --- memory ----------------------------------------------------------------
for _name in ("lw", "lb", "lbu", "lh", "lhu"):
    _op(_name, Fmt.LOAD, Unit.MEM, "ldst", is_load=True)
for _name in ("sw", "sb", "sh"):
    _op(_name, Fmt.STORE, Unit.MEM, "ldst", is_store=True)

# --- conditional branches (and branch-likely variants) ---------------------
for _name in ("beq", "bne"):
    _op(_name, Fmt.BRANCH2, Unit.BRANCH, "alu", is_branch=True)
    _op(_name + "l", Fmt.BRANCH2, Unit.BRANCH, "alu", is_branch=True, is_likely=True)
for _name in ("blez", "bgtz", "bltz", "bgez", "beqz", "bnez"):
    _op(_name, Fmt.BRANCH1, Unit.BRANCH, "alu", is_branch=True)
    _op(_name + "l", Fmt.BRANCH1, Unit.BRANCH, "alu", is_branch=True, is_likely=True)
# Branch on condition-code register (predicate) true/false.
_op("bct", Fmt.BRANCH1, Unit.BRANCH, "alu", is_branch=True)
_op("bcf", Fmt.BRANCH1, Unit.BRANCH, "alu", is_branch=True)
_op("bctl", Fmt.BRANCH1, Unit.BRANCH, "alu", is_branch=True, is_likely=True)
_op("bcfl", Fmt.BRANCH1, Unit.BRANCH, "alu", is_branch=True, is_likely=True)

# --- jumps -----------------------------------------------------------------
_op("j", Fmt.JUMP, Unit.BRANCH, "alu", is_jump=True)
_op("jal", Fmt.JUMP, Unit.BRANCH, "alu", is_jump=True, is_call=True)
_op("jr", Fmt.JR, Unit.BRANCH, "alu", is_jump=True, is_return=True)
_op("jalr", Fmt.JALR, Unit.BRANCH, "alu", is_jump=True, is_call=True)

# --- condition-code (predicate) definition and logic ------------------------
for _name in ("cmpeq", "cmpne", "cmplt", "cmple", "cmpgt", "cmpge"):
    _op(_name, Fmt.CMP, Unit.ALU, "alu")
_op("cmpi", Fmt.CMP, Unit.ALU, "alu")  # cmpi cc, rs, imm handled by parser sugar
_op("cand", Fmt.CCLOGIC2, Unit.ALU, "alu")
_op("cor", Fmt.CCLOGIC2, Unit.ALU, "alu")
_op("cxor", Fmt.CCLOGIC2, Unit.ALU, "alu")
_op("cnot", Fmt.CCLOGIC1, Unit.ALU, "alu")
_op("cmov", Fmt.CCLOGIC1, Unit.ALU, "alu")  # copy one cc to another

# --- conditional moves (the R10000-style limited predication support) -------
_op("cmovt", Fmt.CMOVCC, Unit.ALU, "alu")   # rd <- rs if cc is true
_op("cmovf", Fmt.CMOVCC, Unit.ALU, "alu")   # rd <- rs if cc is false
_op("movz", Fmt.CMOVR, Unit.ALU, "alu")     # rd <- rs if rt == 0
_op("movn", Fmt.CMOVR, Unit.ALU, "alu")     # rd <- rs if rt != 0

# --- floating point ----------------------------------------------------------
_op("fadd", Fmt.RRR, Unit.FPADD, "fpadd")
_op("fsub", Fmt.RRR, Unit.FPADD, "fpadd")
_op("fmul", Fmt.RRR, Unit.FPMUL, "fpmul")
_op("fdiv", Fmt.RRR, Unit.FPDIV, "fpdiv")
_op("fmov", Fmt.RR, Unit.FPADD, "fpadd")
_op("fneg", Fmt.RR, Unit.FPADD, "fpadd")
for _name in ("fcmpeq", "fcmplt", "fcmple"):
    _op(_name, Fmt.CMP, Unit.FPADD, "fpadd")
_op("lwf", Fmt.LOAD, Unit.MEM, "ldst", is_load=True)
_op("swf", Fmt.STORE, Unit.MEM, "ldst", is_store=True)
_op("cvtif", Fmt.RR, Unit.FPADD, "fpadd")   # int reg -> fp reg
_op("cvtfi", Fmt.RR, Unit.FPADD, "fpadd")   # fp reg -> int reg (truncate)

# --- misc --------------------------------------------------------------------
_op("nop", Fmt.NONE, Unit.NONE, "alu")
_op("halt", Fmt.NONE, Unit.NONE, "alu", is_halt=True)
# Speculation barrier: architecturally a no-op, but the timing simulator
# refuses to dispatch past it until every older instruction has completed
# (plus a configurable drain penalty, ``MachineConfig.fence_stall``).  The
# safe-speculative compilation scheme inserts it in front of hoisted loads
# that the spectre analysis flags (see :mod:`repro.robust.spectre`).
_op("fence", Fmt.NONE, Unit.NONE, "alu", is_fence=True)

OPCODES: dict[str, OpInfo] = dict(_TABLE)


def opinfo(name: str) -> OpInfo:
    """Look up the :class:`OpInfo` for an opcode name.

    >>> opinfo("beql").is_likely
    True
    """
    try:
        return OPCODES[name]
    except KeyError:
        raise KeyError(f"unknown opcode: {name!r}") from None


def is_opcode(name: str) -> bool:
    """True when *name* is a defined opcode."""
    return name in OPCODES


#: Map a plain conditional branch opcode to its branch-likely twin.
LIKELY_OF: dict[str, str] = {
    name: name + "l"
    for name in ("beq", "bne", "blez", "bgtz", "bltz", "bgez", "beqz", "bnez")
}
LIKELY_OF["bct"] = "bctl"
LIKELY_OF["bcf"] = "bcfl"

#: Map a conditional branch to the branch with the opposite condition.
NEGATED_BRANCH: dict[str, str] = {
    "beq": "bne", "bne": "beq",
    "blez": "bgtz", "bgtz": "blez",
    "bltz": "bgez", "bgez": "bltz",
    "beqz": "bnez", "bnez": "beqz",
    "bct": "bcf", "bcf": "bct",
}
NEGATED_BRANCH.update({LIKELY_OF[k]: LIKELY_OF[v] for k, v in NEGATED_BRANCH.items()
                       if k in LIKELY_OF and v in LIKELY_OF})

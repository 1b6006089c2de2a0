"""Software renaming support (paper Section 1).

"Software renaming involves replacing the destination register of the
concerned instruction and storing its result into an additional register.
This extra register can either be from the pool of free registers (at that
time) or dedicated registers."

:func:`free_registers` computes the pool of registers a program fragment
never touches; the speculation pass draws rename targets from it.
"""

from __future__ import annotations

from typing import Iterable

from ..cfg.graph import CFG
from ..isa.instruction import Instruction
from ..isa.registers import CC_REGS, FP_REGS, INT_REGS, RegisterPool

#: Registers never handed out as rename targets: the zero register and the
#: MIPS-convention stack/frame/return registers.
RESERVED = frozenset({"r0", "r29", "r30", "r31"})


def used_registers(instructions: Iterable[Instruction]) -> set[str]:
    """Every register mentioned by any instruction in the sequence."""
    used: set[str] = set()
    for ins in instructions:
        used.update(ins.registers())
    return used


def free_registers(cfg: CFG, reg_class: str = "int") -> RegisterPool:
    """Pool of registers of *reg_class* unused anywhere in the CFG.

    Conservative and simple — matching the paper's observation that "most
    conservative assumptions need to be made unless a full-blown predicate
    analyzer is available".
    """
    used: set[str] = set()
    for bb in cfg.blocks:
        used.update(used_registers(bb.instructions))
    if reg_class == "int":
        universe: Iterable[str] = INT_REGS
    elif reg_class == "fp":
        universe = FP_REGS
    elif reg_class == "cc":
        universe = CC_REGS
    else:
        raise ValueError(f"unknown register class {reg_class!r}")
    return RegisterPool(r for r in universe if r not in used and r not in RESERVED)

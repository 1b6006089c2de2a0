"""MIPS-like ISA substrate: registers, opcodes, instructions, programs.

This package defines the intermediate representation every other subsystem
operates on, mirroring the MIPS-like intermediate code of the paper's
toolchain (GNU-compiled sources pre-processed to MIPS-like intermediate
code, Section 6).
"""

from .registers import (
    ALL_REGS, CC_REGS, FP_REGS, INT_REGS, NUM_CC_REGS, NUM_FP_REGS,
    NUM_INT_REGS, ZERO_REG, RegisterPool, is_cc_reg, is_fp_reg, is_int_reg,
    is_register, reg_index, register_class,
)
from .opcodes import (
    LIKELY_OF, NEGATED_BRANCH, OPCODES, Fmt, OpInfo, Unit, is_opcode, opinfo,
)
from .instruction import Guard, Instruction, make
from .program import DATA_BASE, Program
from .parser import ParseError, parse
from .printer import format_instruction, format_program

__all__ = [
    "ALL_REGS", "CC_REGS", "FP_REGS", "INT_REGS", "NUM_CC_REGS",
    "NUM_FP_REGS", "NUM_INT_REGS", "ZERO_REG",
    "RegisterPool", "is_cc_reg", "is_fp_reg",
    "is_int_reg", "is_register", "reg_index", "register_class",
    "LIKELY_OF", "NEGATED_BRANCH", "OPCODES",
    "Fmt", "OpInfo", "Unit", "is_opcode", "opinfo",
    "Guard", "Instruction", "make",
    "DATA_BASE", "Program",
    "ParseError", "parse",
    "format_instruction", "format_program",
]

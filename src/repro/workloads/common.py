"""Shared workload machinery.

All four kernels (compress/espresso/xlisp/grep) generate their input data
in-program with the same 32-bit LCG, so each workload is a self-contained
assembly program *and* has a bit-exact Python reference implementation used
by the test suite to verify the simulated computation.
"""

from __future__ import annotations

MASK32 = 0xFFFF_FFFF

#: LCG constants (glibc's rand).
LCG_A = 1103515245
LCG_C = 12345

#: Conventional buffer addresses, far apart, inside the data region.
SRC_BASE = 0x0010_0000
OUT_BASE = 0x0020_0000
AUX_BASE = 0x0030_0000


def lcg_next(x: int) -> int:
    """One LCG step, identical to the assembly (32-bit wraparound)."""
    return (x * LCG_A + LCG_C) & MASK32


#: The assembly idiom for one LCG step on register `reg` (clobbers nothing).
def lcg_asm(reg: str) -> str:
    return f"    muli {reg}, {reg}, {LCG_A}\n    addi {reg}, {reg}, {LCG_C}"

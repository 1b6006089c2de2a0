"""Register namespaces for the MIPS-like ISA.

The machine model mirrors the MIPS R10000 register architecture used by the
paper: 32 general-purpose integer registers (``r0`` hard-wired to zero),
32 floating-point registers, and — to support guarded execution — a bank of
eight condition-code / predicate registers ``cc0`` .. ``cc7`` (the paper's
"extra condition code registers", Section 3).

Registers are represented as interned strings ("r4", "f2", "cc1") so that
instructions remain cheap to copy and hash.  This module centralizes
construction, validation and classification of register names.
"""

from __future__ import annotations

from typing import Iterable

NUM_INT_REGS = 32
NUM_FP_REGS = 32
NUM_CC_REGS = 8

#: The integer register that always reads as zero (MIPS convention).
ZERO_REG = "r0"

INT_REGS: tuple[str, ...] = tuple(f"r{i}" for i in range(NUM_INT_REGS))
FP_REGS: tuple[str, ...] = tuple(f"f{i}" for i in range(NUM_FP_REGS))
CC_REGS: tuple[str, ...] = tuple(f"cc{i}" for i in range(NUM_CC_REGS))

ALL_REGS: frozenset[str] = frozenset(INT_REGS) | frozenset(FP_REGS) | frozenset(CC_REGS)

_INT_SET = frozenset(INT_REGS)
_FP_SET = frozenset(FP_REGS)
_CC_SET = frozenset(CC_REGS)


def is_register(name: str) -> bool:
    """Return True if *name* is a valid register in any namespace."""
    return name in ALL_REGS


def is_int_reg(name: str) -> bool:
    """Return True for general-purpose integer registers r0..r31."""
    return name in _INT_SET


def is_fp_reg(name: str) -> bool:
    """Return True for floating-point registers f0..f31."""
    return name in _FP_SET


def is_cc_reg(name: str) -> bool:
    """Return True for condition-code (predicate) registers cc0..cc7."""
    return name in _CC_SET


def reg_index(name: str) -> int:
    """Return the numeric index of a register within its namespace.

    >>> reg_index("r7")
    7
    >>> reg_index("cc3")
    3
    """
    if name in _CC_SET:
        return int(name[2:])
    if name in _INT_SET or name in _FP_SET:
        return int(name[1:])
    raise ValueError(f"not a register: {name!r}")


def register_class(name: str) -> str:
    """Classify a register name as ``"int"``, ``"fp"`` or ``"cc"``.

    >>> register_class("r3")
    'int'
    >>> register_class("f0")
    'fp'
    >>> register_class("cc1")
    'cc'
    """
    if name in _INT_SET:
        return "int"
    if name in _FP_SET:
        return "fp"
    if name in _CC_SET:
        return "cc"
    raise ValueError(f"not a register: {name!r}")


class RegisterPool:
    """Allocator handing out free registers of one class.

    Used by the software-renaming transformation (paper Section 1): when an
    instruction is speculated above a branch and its destination is live on
    the other path, the destination is renamed to a register "from the pool
    of free registers (at that time)".

    The pool is seeded with registers *not* used by the program fragment
    being transformed; :meth:`take` removes and returns one, and
    :meth:`release` returns a register to the pool.
    """

    def __init__(self, free: Iterable[str]):
        # Keep deterministic ordering: lowest-index registers first.
        self._free: list[str] = sorted(set(free), key=_reg_sort_key)
        for reg in self._free:
            if not is_register(reg):
                raise ValueError(f"not a register: {reg!r}")

    def __len__(self) -> int:
        return len(self._free)

    def __contains__(self, reg: str) -> bool:
        return reg in self._free

    def take(self) -> str:
        """Remove and return the lowest-numbered free register.

        Raises :class:`IndexError` when the pool is exhausted — callers
        (the speculation pass) treat that as "renaming not possible here".
        """
        if not self._free:
            raise IndexError("register pool exhausted")
        return self._free.pop(0)

    def release(self, reg: str) -> None:
        """Return a register to the pool (idempotent)."""
        if not is_register(reg):
            raise ValueError(f"not a register: {reg!r}")
        if reg not in self._free:
            self._free.append(reg)
            self._free.sort(key=_reg_sort_key)


def _reg_sort_key(name: str) -> tuple[int, int]:
    cls = register_class(name)
    order = {"int": 0, "fp": 1, "cc": 2}[cls]
    return (order, reg_index(name))

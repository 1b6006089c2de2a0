"""Def-use information within basic blocks.

The transforms (forward substitution, copy propagation, dead-code
elimination) are intentionally local — matching the paper's peephole framing
("coupled with other optimizations especially peephole optimizations like
forward substitution, redundant load-store removal", Section 1) — so this
module provides intra-block def-use chains plus a conservative summary of
cross-block liveness from :mod:`repro.cfg.liveness`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .basic_block import BasicBlock


@dataclass
class DefUse:
    """Intra-block def-use chains.

    ``uses_of[i]`` — indices of instructions using the value defined by
    instruction *i* (up to the next kill of that register).
    ``def_of_use[(i, reg)]`` — index of the in-block instruction defining the
    value instruction *i* reads from *reg*, or -1 if live-in.
    """

    uses_of: dict[int, list[int]] = field(default_factory=dict)
    def_of_use: dict[tuple[int, str], int] = field(default_factory=dict)
    last_def: dict[str, int] = field(default_factory=dict)


def analyze_block(bb: BasicBlock) -> DefUse:
    """Build def-use chains for one basic block."""
    du = DefUse()
    current_def: dict[str, int] = {}
    for i, ins in enumerate(bb.instructions):
        du.uses_of[i] = []
        for r in ins.uses():
            d = current_def.get(r, -1)
            du.def_of_use[(i, r)] = d
            if d >= 0 and (not du.uses_of[d] or du.uses_of[d][-1] != i):
                du.uses_of[d].append(i)
        # Partial writes (guarded / cmov) merge with the old value: they do
        # not start a fresh def for forward-substitution purposes.
        if ins.is_cmov or ins.is_guarded:
            for r in ins.defs():
                current_def.pop(r, None)
        else:
            for r in ins.defs():
                current_def[r] = i
    du.last_def = current_def
    return du


def single_use(bb: BasicBlock, def_index: int) -> int | None:
    """If the value defined at *def_index* has exactly one in-block use and
    is killed before block exit, return that use's index; else None."""
    du = analyze_block(bb)
    uses = du.uses_of.get(def_index, [])
    ins = bb.instructions[def_index]
    defs = ins.defs()
    if len(uses) != 1 or not defs:
        return None
    reg = defs[0]
    # Killed before exit?
    if du.last_def.get(reg) == def_index:
        return None  # value escapes the block
    return uses[0]

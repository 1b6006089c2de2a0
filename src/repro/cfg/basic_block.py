"""Basic blocks: maximal straight-line instruction sequences.

A block's instructions are mutable — the schedulers and transforms edit them
in place — and the owning :class:`~repro.cfg.graph.CFG` re-linearizes blocks
back into a :class:`~repro.isa.program.Program` when asked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..isa.instruction import Instruction


@dataclass
class BasicBlock:
    """One basic block.

    Attributes:
        bid: block id, unique within its CFG (entry is 0 by convention).
        label: primary label naming the block (used when re-linearizing);
            blocks that were fall-through targets get synthetic labels only
            if something ends up branching to them.
        instructions: the block body.  At most the final instruction may be
            a control transfer; guarded non-control instructions may appear
            anywhere.
        freq: execution frequency (visits), filled in from profile data or
            by analytic annotation (paper Figure 2 style).
    """

    bid: int
    label: Optional[str] = None
    instructions: list[Instruction] = field(default_factory=list)
    freq: float = 0.0

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def terminator(self) -> Optional[Instruction]:
        """The final control-transfer instruction, if any."""
        if self.instructions and self.instructions[-1].is_control:
            return self.instructions[-1]
        return None

    @property
    def body(self) -> list[Instruction]:
        """Instructions excluding the terminator."""
        t = self.terminator
        return self.instructions[:-1] if t is not None else list(self.instructions)

    def defs(self) -> set[str]:
        out: set[str] = set()
        for ins in self.instructions:
            out.update(ins.defs())
        return out

    def uses_before_def(self) -> set[str]:
        """Registers read before any write in this block (upward-exposed)."""
        defined: set[str] = set()
        exposed: set[str] = set()
        for ins in self.instructions:
            for r in ins.uses():
                if r not in defined:
                    exposed.add(r)
            # A guarded or conditional-move write may not happen: the old
            # value can flow through, so it does NOT kill the register.
            if ins.is_cmov or ins.is_guarded:
                continue
            defined.update(ins.defs())
        return exposed

    def kills(self) -> set[str]:
        """Registers unconditionally written by this block."""
        out: set[str] = set()
        for ins in self.instructions:
            if ins.is_cmov or ins.is_guarded:
                continue
            out.update(ins.defs())
        return out

    def __repr__(self) -> str:
        name = self.label or f"bb{self.bid}"
        return f"<BB{self.bid} {name} n={len(self.instructions)} freq={self.freq:g}>"

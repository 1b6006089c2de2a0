"""Synthetic branch-behavior microkernels for ablations.

:func:`phased_loop_program` generates a single loop whose one forward
branch follows a fully controlled, phased outcome pattern, letting the
ablation benchmarks measure each transform against exactly the behavior
class it targets.
"""

from __future__ import annotations

from typing import Sequence

from ..isa.parser import parse
from ..isa.program import Program
from .common import AUX_BASE


def phased_loop_program(phases: Sequence[tuple[int, str]],
                        body_ops: int = 2) -> Program:
    """A loop whose branch is taken according to *phases*: a list of
    ``(length, kind)`` with kind ``"taken"``, ``"nottaken"`` or
    ``"alternate"``.

    The branch predicate is computed from the iteration counter ``r1``
    against the phase boundaries, so the outcome sequence is exactly the
    requested pattern.  ``body_ops`` pads both arms with arithmetic to give
    the schedulers something to move.
    """
    total = sum(length for length, _ in phases)
    # Decide takenness per phase via boundary tests; build a chain that
    # sets r5 = 1 when the branch should be taken this iteration.
    lines = [
        ".text",
        "main:",
        "    li   r1, 0",
        f"    li   r2, {total}",
        "loop:",
        "    li   r5, 0",
    ]
    start = 0
    for k, (length, kind) in enumerate(phases):
        end = start + length
        lines += [
            f"    slti r6, r1, {start}",
            f"    bnez r6, phase_done_{k}",
            f"    slti r6, r1, {end}",
            f"    beqz r6, phase_done_{k}",
        ]
        if kind == "taken":
            lines.append("    li   r5, 1")
        elif kind == "nottaken":
            lines.append("    li   r5, 0")
        elif kind == "alternate":
            lines.append("    andi r5, r1, 1")
        else:
            raise ValueError(f"unknown phase kind {kind!r}")
        lines.append(f"phase_done_{k}:")
        start = end
    body_t = "\n".join(f"    addi r10, r10, {i + 1}" for i in range(body_ops))
    body_f = "\n".join(f"    addi r11, r11, {i + 1}" for i in range(body_ops))
    lines += [
        "    bnez r5, arm_taken    # the branch under study",
        body_f,
        "    j    latch",
        "arm_taken:",
        body_t,
        "latch:",
        "    addi r1, r1, 1",
        "    bne  r1, r2, loop",
        f"    li   r7, {AUX_BASE}",
        "    sw   r10, 0(r7)",
        "    sw   r11, 4(r7)",
        "    halt",
    ]
    return parse("\n".join(lines), name="synth-phased")

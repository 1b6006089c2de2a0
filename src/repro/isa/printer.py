"""Textual formatting of instructions and programs.

The output format round-trips through :mod:`repro.isa.parser`:

    parse(format_program(p)) is semantically identical to p

(uids and annotations are not serialized).
"""

from __future__ import annotations

from .opcodes import Fmt
from .instruction import Instruction
from .program import Program


def format_instruction(ins: Instruction) -> str:
    """Render one instruction in assembly syntax (without label)."""
    fmt = ins.info.fmt
    op = ins.op
    if fmt == Fmt.RRR:
        body = f"{op} {ins.dest}, {ins.srcs[0]}, {ins.srcs[1]}"
    elif fmt == Fmt.RRI:
        body = f"{op} {ins.dest}, {ins.srcs[0]}, {ins.imm}"
    elif fmt == Fmt.RI:
        body = f"{op} {ins.dest}, {ins.imm}"
    elif fmt == Fmt.RR:
        body = f"{op} {ins.dest}, {ins.srcs[0]}"
    elif fmt == Fmt.LOAD:
        body = f"{op} {ins.dest}, {ins.imm}({ins.srcs[0]})"
    elif fmt == Fmt.STORE:
        body = f"{op} {ins.srcs[0]}, {ins.imm}({ins.srcs[1]})"
    elif fmt == Fmt.BRANCH2:
        body = f"{op} {ins.srcs[0]}, {ins.srcs[1]}, {ins.target}"
    elif fmt == Fmt.BRANCH1:
        body = f"{op} {ins.srcs[0]}, {ins.target}"
    elif fmt == Fmt.JUMP:
        body = f"{op} {ins.target}"
    elif fmt == Fmt.JR:
        body = f"{op} {ins.srcs[0]}"
    elif fmt == Fmt.JALR:
        body = f"{op} {ins.dest}, {ins.srcs[0]}"
    elif fmt == Fmt.CMP:
        if op == "cmpi":
            body = f"{op} {ins.dest}, {ins.srcs[0]}, {ins.imm}"
        else:
            body = f"{op} {ins.dest}, {ins.srcs[0]}, {ins.srcs[1]}"
    elif fmt in (Fmt.CCLOGIC2, Fmt.CMOVCC, Fmt.CMOVR):
        body = f"{op} {ins.dest}, {ins.srcs[0]}, {ins.srcs[1]}"
    elif fmt == Fmt.CCLOGIC1:
        body = f"{op} {ins.dest}, {ins.srcs[0]}"
    elif fmt == Fmt.NONE:
        body = op
    else:  # pragma: no cover - exhaustive
        raise AssertionError(f"unhandled format {fmt}")
    if ins.guard is not None:
        return f"{ins.guard} {body}"
    return body


def format_program(prog: Program) -> str:
    """Render a whole program, labels included, as parseable assembly."""
    lines: list[str] = []
    if prog.data_symbols or prog.data_image:
        lines.append(".data")
        for sym in sorted(prog.data_symbols, key=prog.data_symbols.get):
            lines.append(f"# {sym} @ 0x{prog.data_symbols[sym]:08x}")
        lines.append(".text")
    by_index: dict[int, list[str]] = {}
    for name, idx in prog.labels.items():
        by_index.setdefault(idx, []).append(name)
    for idx in by_index:
        by_index[idx].sort()
    for i, ins in enumerate(prog.instructions):
        for name in by_index.get(i, ()):
            lines.append(f"{name}:")
        lines.append(f"    {format_instruction(ins)}")
    for name in by_index.get(len(prog.instructions), ()):
        lines.append(f"{name}:")
    return "\n".join(lines) + "\n"

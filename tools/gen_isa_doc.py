#!/usr/bin/env python3
"""Generate docs/ISA.md from the live opcode table.

Run:  python tools/gen_isa_doc.py
The test suite asserts the checked-in document matches the generator's
output, so the reference can never drift from the implementation.
"""

from __future__ import annotations

from pathlib import Path

from repro.isa.opcodes import OPCODES, Fmt

_FMT_SYNTAX = {
    Fmt.RRR: "op rd, rs, rt",
    Fmt.RRI: "op rd, rs, imm",
    Fmt.RI: "op rd, imm",
    Fmt.RR: "op rd, rs",
    Fmt.LOAD: "op rd, imm(rs)",
    Fmt.STORE: "op rt, imm(rs)",
    Fmt.BRANCH2: "op rs, rt, label",
    Fmt.BRANCH1: "op rs, label",
    Fmt.JUMP: "op label",
    Fmt.JR: "op rs",
    Fmt.JALR: "op rd, rs",
    Fmt.CMP: "op cc, rs, rt",
    Fmt.CCLOGIC2: "op cc, cca, ccb",
    Fmt.CCLOGIC1: "op cc, cca",
    Fmt.CMOVCC: "op rd, rs, cc",
    Fmt.CMOVR: "op rd, rs, rt",
    Fmt.NONE: "op",
}


def _flags(info) -> str:
    flags = []
    for name in ("is_branch", "is_likely", "is_jump", "is_load", "is_store",
                 "is_call", "is_return", "is_halt"):
        if getattr(info, name):
            flags.append(name[3:])
    return ", ".join(flags) or "—"


def render() -> str:
    lines = [
        "# ISA reference",
        "",
        "*Generated by `tools/gen_isa_doc.py` from "
        "`repro.isa.opcodes.OPCODES` — do not edit by hand.*",
        "",
        "Registers: `r0`–`r31` (integer; `r0` reads as zero), `f0`–`f31`"
        " (floating point), `cc0`–`cc7` (condition codes / predicates).",
        "",
        "Any instruction may carry a guard prefix `(ccN)` / `(!ccN)`: it"
        " executes only when the predicate holds and is *annulled*"
        " otherwise (the paper's fully-predicated \"fictional\" form,"
        " which both simulators execute natively).",
        "",
        "| opcode | syntax | unit | latency class | flags |",
        "|---|---|---|---|---|",
    ]
    for name in sorted(OPCODES):
        info = OPCODES[name]
        syntax = _FMT_SYNTAX[info.fmt].replace("op", name, 1)
        lines.append(f"| `{name}` | `{syntax}` | {info.unit.value} "
                     f"| {info.latency_class} | {_flags(info)} |")
    lines += [
        "",
        "Latency classes map to cycles via the paper's Table 2:"
        " alu 1, ldst 2, sft 1, fpadd/fpmul/fpdiv 3"
        " (+6-cycle cache-miss penalty on memory ops).",
        "",
        "Assembler directives: `.text`, `.data`, `.word v, ...` (with"
        " `&label` for code addresses — jump tables), `.byte`, `.space n`,"
        " `.ascii`/`.asciiz`, `.align n`; the pseudo-instruction"
        " `la rd, symbol` loads a data symbol's address.",
    ]
    return "\n".join(lines) + "\n"


def main() -> None:
    out = Path(__file__).resolve().parent.parent / "docs" / "ISA.md"
    out.parent.mkdir(exist_ok=True)
    out.write_text(render())
    print(f"wrote {out}")


if __name__ == "__main__":
    main()

"""Assembly parser: text → :class:`repro.isa.program.Program`.

Syntax
------
::

    # comment                  ; also a comment
    .data
    buf:    .word 1, 2, 3
    msg:    .asciiz "hello"
    tbl:    .space 64
            .align 4
    .text
    main:
            li    r1, 0
            la    r2, buf          # pseudo: address of data symbol
            lw    r3, 0(r2)
    loop:
            addi  r1, r1, 1
            bne   r1, r3, loop
            (cc1) add r4, r5, r6   # guarded instruction
            (!cc2) mov r7, r8      # guard with negative sense
            halt

Immediates may be decimal, hexadecimal (``0x..``), negative, character
literals (``'a'``), or ``symbol``/``symbol+offset`` referring to a data
symbol.  The parser is two-pass: the data segment is laid out first so code
may reference data symbols defined later in the file.
"""

from __future__ import annotations

import re
from typing import Optional

from .instruction import Guard, Instruction, make
from .opcodes import is_opcode
from .program import Program
from .registers import is_cc_reg, is_register


class ParseError(ValueError):
    """Raised on malformed assembly, with a line number."""

    def __init__(self, message: str, lineno: int, line: str):
        super().__init__(f"line {lineno}: {message}: {line.strip()!r}")
        self.lineno = lineno
        self.line = line


_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)\s*:\s*(.*)$")
_GUARD_RE = re.compile(r"^\(\s*(!?)\s*(cc\d+)\s*\)\s*(.*)$")
_MEM_RE = re.compile(r"^(-?\w+)\s*\(\s*(\w+)\s*\)$")
_SYM_OFF_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)\s*([+-]\s*\d+)?$")
_STRING_RE = re.compile(r'^"((?:[^"\\]|\\.)*)"$')


def _strip_comment(line: str) -> str:
    """*line* up to its first ``#`` or ``;`` outside a string literal.

    A backslash escapes the character after it, so ``\\"`` neither opens
    nor closes a string and ``"C:\\\\"`` closes at its last quote.  Outside
    a string, ``#`` and ``;`` start the comment even when escaped.
    """
    if '"' not in line:
        cut = len(line)
        for ch in "#;":
            i = line.find(ch, 0, cut)
            if i >= 0:
                cut = i
        return line[:cut]
    in_str = escaped = False
    for i, ch in enumerate(line):
        if not in_str and ch in "#;":
            return line[:i]
        if escaped:
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == '"':
            in_str = not in_str
    return line


def _unescape(s: str) -> bytes:
    return s.encode("utf-8").decode("unicode_escape").encode("latin-1")


def _pending_code_refs(prog: Program) -> list[tuple[int, str]]:
    """Fixup list for ``.word &label`` code references (address, label)."""
    if not hasattr(prog, "_code_refs"):
        prog._code_refs = []  # type: ignore[attr-defined]
    return prog._code_refs  # type: ignore[attr-defined]


def parse(text: str, name: str = "program") -> Program:
    """Parse assembly *text* into a validated :class:`Program`."""
    prog = Program(name=name)
    raws = text.splitlines()
    lines = [_strip_comment(raw).strip() for raw in raws]

    # ---- pass 1: data segment -------------------------------------------------
    section = "text"
    pending_label: Optional[str] = None
    for lineno, (raw, line) in enumerate(zip(raws, lines), 1):
        if not line:
            continue
        if line == ".data":
            section = "data"
            continue
        if line == ".text":
            section = "text"
            continue
        if section != "data":
            continue
        m = _LABEL_RE.match(line)
        if m:
            label, rest = m.group(1), m.group(2).strip()
            if pending_label is not None:
                raise ParseError("two consecutive data labels without a "
                                 "directive; attach each label to a directive",
                                 lineno, raw)
            if not rest:
                pending_label = label
                continue
            _parse_data_directive(prog, label, rest, lineno, raw)
        else:
            label, pending_label = pending_label, None
            _parse_data_directive(prog, label, line, lineno, raw)
    if pending_label is not None:
        # A trailing bare label names the end of the data segment.
        prog.data_symbols[pending_label] = prog._data_end()

    # ---- pass 2: text segment ---------------------------------------------------
    section = "text"
    for lineno, (raw, line) in enumerate(zip(raws, lines), 1):
        if not line:
            continue
        if line == ".data":
            section = "data"
            continue
        if line == ".text":
            section = "text"
            continue
        if section != "text":
            continue
        while True:
            m = _LABEL_RE.match(line)
            if not m or is_opcode(m.group(1)):
                break
            prog.add_label(m.group(1))
            line = m.group(2).strip()
            if not line:
                break
        if not line:
            continue
        ins = _parse_instruction(prog, line, lineno, raw)
        if ins is not None:
            prog.append(ins)

    # Resolve `.word &label` code references now that labels are known, and
    # record them on the Program so simulators re-resolve after transforms.
    for addr, label in _pending_code_refs(prog):
        try:
            index = prog.target_index(label)
        except KeyError:
            raise ParseError(f"undefined code label &{label}", 0, label)
        for i, b in enumerate(int(index).to_bytes(4, "little")):
            prog.data_image[addr + i] = b
        prog.code_refs[addr] = label

    prog.validate()
    return prog


def _parse_data_directive(prog: Program, label: Optional[str], text: str,
                          lineno: int, raw: str) -> None:
    parts = text.split(None, 1)
    directive = parts[0]
    arg = parts[1].strip() if len(parts) > 1 else ""
    if directive == ".word":
        values = []
        fixups = []  # (position within this directive, code label)
        for tok in arg.split(","):
            tok = tok.strip()
            if tok.startswith("&"):
                # Code-label reference (e.g. an interpreter jump table):
                # resolved after the text section is parsed.
                fixups.append((len(values), tok[1:]))
                values.append(0)
            else:
                values.append(_parse_int(tok, lineno, raw))
        start = prog.add_data_word(label, values)
        for off, name in fixups:
            _pending_code_refs(prog).append((start + 4 * off, name))
    elif directive == ".byte":
        values = bytes(_parse_int(v.strip(), lineno, raw) & 0xFF
                       for v in arg.split(","))
        prog.add_data_bytes(label, values)
    elif directive == ".space":
        n = _parse_int(arg, lineno, raw)
        prog.add_data_bytes(label, bytes(n))
    elif directive == ".asciiz":
        m = _STRING_RE.match(arg)
        if not m:
            raise ParseError("bad string literal", lineno, raw)
        prog.add_data_bytes(label, _unescape(m.group(1)) + b"\x00")
    elif directive == ".ascii":
        m = _STRING_RE.match(arg)
        if not m:
            raise ParseError("bad string literal", lineno, raw)
        prog.add_data_bytes(label, _unescape(m.group(1)))
    elif directive == ".align":
        n = _parse_int(arg, lineno, raw)
        end = prog._data_end()
        mask = (1 << n) - 1
        aligned = (end + mask) & ~mask
        if aligned > end:
            prog.add_data_bytes(None, bytes(aligned - end))
        if label is not None:
            prog.data_symbols[label] = aligned
    else:
        raise ParseError(f"unknown data directive {directive!r}", lineno, raw)


def _parse_int(tok: str, lineno: int, raw: str) -> int:
    tok = tok.strip()
    if len(tok) >= 3 and tok.startswith("'") and tok.endswith("'"):
        body = _unescape(tok[1:-1])
        if len(body) != 1:
            raise ParseError(f"bad char literal {tok!r}", lineno, raw)
        return body[0]
    try:
        return int(tok, 0)
    except ValueError:
        raise ParseError(f"bad integer {tok!r}", lineno, raw) from None


def _parse_imm(prog: Program, tok: str, lineno: int, raw: str) -> int:
    """Immediate: integer literal, char, or data-symbol[+offset]."""
    tok = tok.strip()
    m = _SYM_OFF_RE.match(tok)
    if m and m.group(1) in prog.data_symbols:
        base = prog.data_symbols[m.group(1)]
        off = int(m.group(2).replace(" ", "")) if m.group(2) else 0
        return base + off
    return _parse_int(tok, lineno, raw)


def _split_operands(text: str) -> list[str]:
    return [t.strip() for t in text.split(",")] if text.strip() else []


def _parse_instruction(prog: Program, line: str, lineno: int,
                       raw: str) -> Optional[Instruction]:
    guard: Optional[Guard] = None
    m = _GUARD_RE.match(line)
    if m:
        if not is_cc_reg(m.group(2)):
            raise ParseError(f"bad guard register {m.group(2)!r}", lineno,
                             raw)
        guard = Guard(m.group(2), sense=(m.group(1) != "!"))
        line = m.group(3).strip()
        if not line:
            raise ParseError("guard with no instruction", lineno, raw)

    parts = line.split(None, 1)
    op = parts[0]
    rest = parts[1] if len(parts) > 1 else ""

    # Pseudo-instruction: la rd, symbol
    if op == "la":
        ops = _split_operands(rest)
        if len(ops) != 2:
            raise ParseError("la expects 2 operands", lineno, raw)
        addr = _parse_imm(prog, ops[1], lineno, raw)
        return make("li", ops[0], addr, guard=guard)

    if not is_opcode(op):
        raise ParseError(f"unknown opcode {op!r}", lineno, raw)

    operands = _split_operands(rest)
    resolved: list = []
    for tok in operands:
        if not tok:
            raise ParseError("empty operand", lineno, raw)
        mm = _MEM_RE.match(tok)
        if mm and is_register(mm.group(2)):
            # offset(base): contributes imm then base register
            off_tok = mm.group(1)
            off = (prog.data_symbols[off_tok] if off_tok in prog.data_symbols
                   else _parse_int(off_tok, lineno, raw))
            resolved.append(off)
            resolved.append(mm.group(2))
        elif is_register(tok):
            resolved.append(tok)
        else:
            # Either a label (for control transfers) or an immediate.
            info_needs_label = tok[0].isalpha() or tok[0] in "._$"
            if info_needs_label and tok not in prog.data_symbols:
                resolved.append(tok)  # label, validated later
            else:
                resolved.append(_parse_imm(prog, tok, lineno, raw))
    try:
        return make(op, *resolved, guard=guard)
    except (ValueError, KeyError) as exc:
        raise ParseError(str(exc), lineno, raw) from None

"""Parser for the Bril-like import source format.

The format (in the spirit of the cs6120 Bril exercise, SNIPPETS.md §2) is
a single function of labeled basic blocks::

    # sum 0..n-1
    @main {
    .entry:
      n: int = const 10;
      i: int = const 0;
      one: int = const 1;
      acc: int = const 0;
      jmp .loop;
    .loop:
      c: bool = lt i n;
      br c .body .done;
    .body:
      acc: int = add acc i;
      i: int = add i one;
      jmp .loop;
    .done:
      print acc;
      ret;
    }

Rules: exactly one function; the body starts with a block label; every
block ends with a terminator (``jmp``/``br``/``ret`` — no fallthrough);
value ops are ``dest: type = op args;`` with types ``int``/``bool``
(``const`` takes an integer literal or ``true``/``false``); effect ops are
``jmp .l;``, ``br cond .then .else;``, ``ret;``, ``print x;``, ``nop;``.
``#`` starts a comment.  Violations raise :class:`SourceError` with the
line number — see docs/INGEST.md.
"""

from __future__ import annotations

import re

from .errors import SourceError
from .model import EFFECT_OPS, TERMINATORS, TYPES, VALUE_OPS, Block, Function, Op

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_RE_FUNC = re.compile(rf"^@({_NAME})\s*\{{$")
_RE_LABEL = re.compile(rf"^\.({_NAME}):$")
_RE_VALUE = re.compile(rf"^({_NAME})\s*:\s*({_NAME})\s*=\s*(.+)$")
_RE_VAR = re.compile(rf"^{_NAME}$")
_RE_BLOCKREF = re.compile(rf"^\.{_NAME}$")
_RE_INT = re.compile(r"^-?[0-9]+$")


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def parse_op(text: str, lineno: int = 0) -> Op:
    """Parse one instruction (no trailing ``;``) into an :class:`Op`.

    Shared by the source parser and the trace reader (whose block
    definitions carry ops in the same per-line syntax).
    """
    m = _RE_VALUE.match(text)
    if m:
        dest, typ, rhs = m.group(1), m.group(2), m.group(3).strip()
        if typ not in TYPES:
            raise SourceError(f"unknown type {typ!r} (expected int or bool)",
                              lineno, text)
        parts = rhs.split()
        op, args = parts[0], parts[1:]
        if op not in VALUE_OPS:
            raise SourceError(f"unknown value op {op!r}", lineno, text)
        if op == "const":
            if len(args) != 1:
                raise SourceError("const takes exactly one literal",
                                  lineno, text)
            lit = args[0]
            if typ == "bool":
                if lit not in ("true", "false"):
                    raise SourceError(
                        f"bool const takes true/false, got {lit!r}",
                        lineno, text)
                value = 1 if lit == "true" else 0
            else:
                if not _RE_INT.match(lit):
                    raise SourceError(f"bad int literal {lit!r}",
                                      lineno, text)
                value = int(lit)
            return Op(op="const", dest=dest, type=typ, value=value,
                      lineno=lineno)
        want = VALUE_OPS[op]
        if len(args) != want:
            raise SourceError(
                f"{op} takes {want} argument(s), got {len(args)}",
                lineno, text)
        for a in args:
            if not _RE_VAR.match(a):
                raise SourceError(f"bad variable name {a!r}", lineno, text)
        return Op(op=op, dest=dest, type=typ, args=tuple(args),
                  lineno=lineno)

    parts = text.split()
    op, rest = parts[0], parts[1:]
    if op not in EFFECT_OPS:
        raise SourceError(f"unknown op {op!r}", lineno, text)
    n_args, n_labels = EFFECT_OPS[op]
    if len(rest) != n_args + n_labels:
        raise SourceError(
            f"{op} takes {n_args} argument(s) and {n_labels} label(s), "
            f"got {len(rest)} operand(s)", lineno, text)
    args, labels = rest[:n_args], rest[n_args:]
    for a in args:
        if not _RE_VAR.match(a):
            raise SourceError(f"bad variable name {a!r}", lineno, text)
    for lab in labels:
        if not _RE_BLOCKREF.match(lab):
            raise SourceError(f"bad block label {lab!r} (expected .name)",
                              lineno, text)
    return Op(op=op, args=tuple(args), labels=tuple(labels), lineno=lineno)


def validate_function(fn: Function) -> None:
    """Structural checks shared by both front ends.

    Every block ends with a terminator, every referenced label exists,
    every used variable is defined somewhere, and the function is
    non-empty.  Raises :class:`SourceError` (located at the offending op)
    on the first violation.
    """
    if not fn.blocks:
        raise SourceError(f"function @{fn.name} has no blocks")
    labels = set()
    for b in fn.blocks:
        if b.label in labels:
            raise SourceError(f"duplicate block label {b.label}")
        labels.add(b.label)
    defined = {op.dest for b in fn.blocks for op in b.ops
               if op.dest is not None}
    for b in fn.blocks:
        if not b.ops or not b.ops[-1].is_terminator:
            raise SourceError(
                f"block {b.label} does not end with a terminator "
                f"({'/'.join(TERMINATORS)})",
                b.ops[-1].lineno if b.ops else None)
        for i, op in enumerate(b.ops):
            if op.is_terminator and i != len(b.ops) - 1:
                raise SourceError(
                    f"terminator {op.op!r} in the middle of block "
                    f"{b.label}", op.lineno)
            for lab in op.labels:
                if lab not in labels:
                    raise SourceError(f"undefined block label {lab}",
                                      op.lineno)
            for a in op.args:
                if a not in defined:
                    raise SourceError(f"use of undefined variable {a!r}",
                                      op.lineno)


def parse_source(text: str) -> Function:
    """Parse the Bril-like source *text* into a validated Function."""
    fn: Function | None = None
    block: Block | None = None
    closed = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if closed:
            raise SourceError("text after closing '}' "
                              "(exactly one function allowed)", lineno, raw)
        m = _RE_FUNC.match(line)
        if m:
            if fn is not None:
                raise SourceError("nested or second function", lineno, raw)
            fn = Function(name=m.group(1))
            continue
        if fn is None:
            raise SourceError("expected '@name {' to open a function",
                              lineno, raw)
        if line == "}":
            closed = True
            continue
        m = _RE_LABEL.match(line)
        if m:
            block = Block(label=f".{m.group(1)}")
            fn.blocks.append(block)
            continue
        if not line.endswith(";"):
            raise SourceError("instruction must end with ';'", lineno, raw)
        if block is None:
            raise SourceError("function body must start with a block "
                              "label (.name:)", lineno, raw)
        block.ops.append(parse_op(line[:-1].strip(), lineno))
    if fn is None:
        raise SourceError("no function found (expected '@name {')")
    if not closed:
        raise SourceError("missing closing '}'")
    validate_function(fn)
    return fn

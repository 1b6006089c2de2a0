"""Generated-Python specialized-step backend (one function per block).

:func:`generate_source` turns a :class:`~repro.fastsim.decode.DecodedProgram`
into the source of one Python module::

    def _make(ctx):
        ... bind memory methods / register lists / counters ...
        def b0():   # one function per basic block
            bcounts[0] += 1
            idxs.extend((0, 1, 2))
            R[5] = (R[3] + R[4]) & 4294967295
            ...
            steps += 3
            _t = R[2] == R[6]
            branches += 1
            brs.append(_t)
            if _t:
                taken += 1
                return 7
            return 4
        ...
        def drive(): ...   # block dispatch + step budget + batch flush
        return drive, swap, snapshot

Immediates, register indices, branch targets and successor block ids are
constant-folded into the source; ``exec``-compiling it gives a dispatch
loop that never inspects an :class:`Instruction` object.  Superblock
dispatch: straight-line code inside a block, control logic only at the
end.

Exactness rules (the generated code must be byte-for-byte equivalent to
:class:`~repro.sim.functional.FunctionalSim` in every observable —
``ExecStats`` counters, register/memory state, trace-entry stream,
branch-outcome vectors, and the pc/step coordinates of every raised
exception):

* every architectural value is computed by the same expression the
  reference uses (``int(a / b)`` division, ``& 0xFFFFFFFF`` write
  masking, sign extension via ``(x ^ 2**31) - 2**31``);
* memory is accessed through the *same bound methods* on the same
  :class:`~repro.sim.memory.Memory` object, in the same order, so page
  allocation (and therefore image diffing) is identical;
* ops that can raise (aligned word/half access, ``cvtfi``, ``swf``
  float packing) stamp an ``err = (pc, offset, blocklen, bid)`` marker
  first, so the caller can repair step/pc bookkeeping to the exact
  instruction the reference would have reported;
* blocks containing anything the emitter does not fully understand
  (non-integer immediates, unknown opcodes, odd register classes)
  compile to a *bail block* that hands control to the reference
  interpreter mid-run — unmodeled programs stay exactly as unmodeled as
  before.

Return protocol of a block function: ``>= 0`` next block id, ``-1``
halt (``bail_pc`` holds the final pc), ``-3`` bail to the reference
interpreter at ``bail_pc``.  ``drive()`` returns 0 halt, 1 batch full,
2 step-budget bail, 3 interpreter bail; only after 1 is it called again
(it resumes at ``entry``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .decode import (F_BRANCH, F_HALT, F_JUMP, DecodedProgram, DecodeError,
                     reg_id)

M32 = "4294967295"

#: Test/fault-injection hook: when set, applied to the generated source
#: before compilation (and the compile cache is bypassed so corrupted
#: code never outlives the hook).  See repro.fastsim.faults.
_SOURCE_TRANSFORM: Optional[Callable[[str], str]] = None


class _Unsupported(Exception):
    """This instruction cannot be specialized; its block bails."""


@dataclass
class CompiledFunctional:
    """One exec-compiled codegen variant of a program."""

    source: str
    code: object
    n_bail_blocks: int
    record: bool
    trace: bool


# -- operand helpers ---------------------------------------------------------

def _ri(name: Optional[str]) -> str:
    if name is None:
        raise _Unsupported("missing int register")
    i = reg_id(name)
    if i >= 32:
        raise _Unsupported(f"{name} is not an int register")
    return f"R[{i}]"


def _fi(name: Optional[str]) -> str:
    if name is None:
        raise _Unsupported("missing fp register")
    i = reg_id(name)
    if not 32 <= i < 64:
        raise _Unsupported(f"{name} is not an fp register")
    return f"F[{i - 32}]"


def _ci(name: Optional[str]) -> str:
    if name is None:
        raise _Unsupported("missing cc register")
    i = reg_id(name)
    if i < 64:
        raise _Unsupported(f"{name} is not a cc register")
    return f"C[{i - 64}]"


def _sgn(expr: str) -> str:
    return f"(({expr} ^ 2147483648) - 2147483648)"


def _imm(ins) -> int:
    v = ins.imm
    if not isinstance(v, int) or isinstance(v, bool):
        raise _Unsupported(f"non-integer immediate {v!r}")
    return v


def _addr(ins) -> tuple:
    """(setup-expression for _a, base register) of a load address."""
    base = _ri(ins.srcs[0] if ins.info.is_load else ins.srcs[1])
    imm = _imm(ins)
    if imm == 0:
        return f"_a = {base}", base
    return f"_a = ({base} + ({imm})) & {M32}", base


_SLT_CMP = {"seq": "==", "sne": "!=", "sge": ">=", "sgt": ">", "sle": "<="}
_CMP_CC = {"cmpeq": "==", "cmpne": "!=", "cmplt": "<",
           "cmple": "<=", "cmpgt": ">", "cmpge": ">="}
_FCMP_CC = {"fcmpeq": "==", "fcmplt": "<", "fcmple": "<="}


class _Emitter:
    """Accumulates generated lines for one block, tracking nonlocals."""

    def __init__(self, record: bool, trace: bool):
        self.record = record
        self.trace = trace
        self.lines: list = []          # (indent, text)
        self.nonlocals: set = {"steps"}
        self.bo_uids: set = set()      # branch uids needing _bo<uid> slots

    def put(self, indent: int, *texts: str) -> None:
        for t in texts:
            self.lines.append((indent, t))

    def count(self, ind: int, counter: str) -> None:
        self.nonlocals.add(counter)
        self.put(ind, f"{counter} += 1")

    # -- one non-terminator instruction (exec arm) ---------------------------

    def exec_lines(self, ins, pc: int, k: int, blocklen: int,
                   bid: int) -> list:
        """Generated statements for *ins* (sans guard); [] means no-op."""
        op = ins.op
        out: list = []

        def emit(*texts):
            out.extend(texts)

        def bump(counter):
            self.nonlocals.add(counter)
            out.append(f"{counter} += 1")

        def mark_raising():
            self.nonlocals.add("err")
            out.append(f"err = ({pc}, {k}, {blocklen}, {bid})")

        d = ins.dest
        skip_dest = d == "r0"
        s = ins.srcs

        if op in ("add", "sub", "and", "or", "xor"):
            if skip_dest:
                return out
            sym = {"add": "+", "sub": "-", "and": "&", "or": "|",
                   "xor": "^"}[op]
            expr = f"{_ri(s[0])} {sym} {_ri(s[1])}"
            if op in ("add", "sub"):
                expr = f"({expr}) & {M32}"
            emit(f"{_ri(d)} = {expr}")
        elif op in ("addi", "subi"):
            if skip_dest:
                return out
            sym = "+" if op == "addi" else "-"
            emit(f"{_ri(d)} = ({_ri(s[0])} {sym} ({_imm(ins)})) & {M32}")
        elif op in ("andi", "ori", "xori"):
            if skip_dest:
                return out
            sym = {"andi": "&", "ori": "|", "xori": "^"}[op]
            emit(f"{_ri(d)} = {_ri(s[0])} {sym} {_imm(ins) & 0xFFFFFFFF}")
        elif op == "mul":
            if skip_dest:
                return out
            emit(f"{_ri(d)} = ({_sgn(_ri(s[0]))} * {_sgn(_ri(s[1]))}) "
                 f"& {M32}")
        elif op == "muli":
            if skip_dest:
                return out
            emit(f"{_ri(d)} = ({_sgn(_ri(s[0]))} * ({_imm(ins)})) & {M32}")
        elif op in ("div", "rem"):
            a, b = _sgn(_ri(s[0])), _sgn(_ri(s[1]))
            if skip_dest:
                emit(f"if {b} == 0:")
                self.nonlocals.add("dbz")
                emit("    dbz += 1")
                return out
            emit(f"_b = {b}", "if _b == 0:")
            self.nonlocals.add("dbz")
            emit("    dbz += 1", f"    {_ri(d)} = 0", "else:")
            if op == "div":
                emit(f"    {_ri(d)} = int({a} / _b) & {M32}")
            else:
                emit(f"    _v = {a}",
                     f"    {_ri(d)} = (_v - int(_v / _b) * _b) & {M32}")
        elif op in ("nor", "not"):
            if skip_dest:
                return out
            inner = (f"{_ri(s[0])} | {_ri(s[1])}" if op == "nor"
                     else _ri(s[0]))
            emit(f"{_ri(d)} = ~({inner}) & {M32}")
        elif op == "neg":
            if skip_dest:
                return out
            emit(f"{_ri(d)} = -{_ri(s[0])} & {M32}")
        elif op == "mov":
            if skip_dest:
                return out
            emit(f"{_ri(d)} = {_ri(s[0])}")
        elif op == "li":
            if skip_dest:
                _imm(ins)
                return out
            emit(f"{_ri(d)} = {_imm(ins) & 0xFFFFFFFF}")
        elif op == "lui":
            if skip_dest:
                _imm(ins)
                return out
            emit(f"{_ri(d)} = {(_imm(ins) << 16) & 0xFFFFFFFF}")
        elif op in ("slt", "sltu") or op in _SLT_CMP:
            if skip_dest:
                return out
            if op == "slt":
                cond = f"{_sgn(_ri(s[0]))} < {_sgn(_ri(s[1]))}"
            elif op == "sltu":
                cond = f"{_ri(s[0])} < {_ri(s[1])}"
            elif op in ("seq", "sne"):
                cond = f"{_ri(s[0])} {_SLT_CMP[op]} {_ri(s[1])}"
            else:
                cond = (f"{_sgn(_ri(s[0]))} {_SLT_CMP[op]} "
                        f"{_sgn(_ri(s[1]))}")
            emit(f"{_ri(d)} = 1 if {cond} else 0")
        elif op == "slti":
            if skip_dest:
                return out
            emit(f"{_ri(d)} = 1 if {_sgn(_ri(s[0]))} < ({_imm(ins)}) "
                 f"else 0")
        elif op in ("sll", "srl", "sra"):
            if skip_dest:
                _imm(ins)
                return out
            sh = _imm(ins) & 31
            if op == "sll":
                emit(f"{_ri(d)} = ({_ri(s[0])} << {sh}) & {M32}")
            elif op == "srl":
                emit(f"{_ri(d)} = {_ri(s[0])} >> {sh}")
            else:
                emit(f"{_ri(d)} = ({_sgn(_ri(s[0]))} >> {sh}) & {M32}")
        elif op in ("sllv", "srlv", "srav"):
            if skip_dest:
                return out
            sh = f"({_ri(s[1])} & 31)"
            if op == "sllv":
                emit(f"{_ri(d)} = ({_ri(s[0])} << {sh}) & {M32}")
            elif op == "srlv":
                emit(f"{_ri(d)} = {_ri(s[0])} >> {sh}")
            else:
                emit(f"{_ri(d)} = ({_sgn(_ri(s[0]))} >> {sh}) & {M32}")

        # -- memory ----------------------------------------------------------
        # Word and byte accesses are inlined against the Memory page dict
        # with byte-exact allocation semantics (reads never allocate,
        # writes always do); the unaligned path defers to the real method
        # so the AlignmentError text/coordinates stay identical.
        elif op == "lw":
            setup, _ = _addr(ins)
            emit(setup, "if _a & 3:")
            self.nonlocals.add("err")
            emit(f"    err = ({pc}, {k}, {blocklen}, {bid})", "    rw(_a)")
            if not skip_dest:
                emit("else:",
                     "    _pg = PG(_a >> 12)",
                     f"    {_ri(d)} = 0 if _pg is None "
                     f"else U32(_pg, _a & 4095)[0]")
            if self.trace:
                emit("mems.append(_a)")
            bump("loads")
        elif op in ("lb", "lbu"):
            setup, _ = _addr(ins)
            emit(setup)
            if not skip_dest:
                emit("_pg = PG(_a >> 12)")
                if op == "lbu":
                    emit(f"{_ri(d)} = _pg[_a & 4095] "
                         f"if _pg is not None else 0")
                else:
                    emit("_v = _pg[_a & 4095] if _pg is not None else 0",
                         f"{_ri(d)} = (_v - 256) & {M32} if _v & 128 "
                         f"else _v")
            if self.trace:
                emit("mems.append(_a)")
            bump("loads")
        elif op in ("lh", "lhu"):
            setup, _ = _addr(ins)
            emit(setup)
            mark_raising()
            if skip_dest:
                emit("rh(_a)")
            elif op == "lhu":
                emit(f"{_ri(d)} = rh(_a)")
            else:
                emit("_v = rh(_a)",
                     f"{_ri(d)} = (_v - 65536) & {M32} if _v & 32768 "
                     f"else _v")
            if self.trace:
                emit("mems.append(_a)")
            bump("loads")
        elif op == "sw":
            setup, _ = _addr(ins)
            emit(setup, "if _a & 3:")
            self.nonlocals.add("err")
            emit(f"    err = ({pc}, {k}, {blocklen}, {bid})",
                 f"    ww(_a, {_ri(s[0])})",
                 "else:",
                 "    _pno = _a >> 12",
                 "    _pg = PG(_pno)",
                 "    if _pg is None:",
                 "        _pg = PAGES[_pno] = bytearray(4096)",
                 "    _o = _a & 4095",
                 f"    _pg[_o:_o + 4] = P32({_ri(s[0])})")
            if self.trace:
                emit("mems.append(_a)")
            bump("stores")
        elif op == "sb":
            setup, _ = _addr(ins)
            emit(setup,
                 "_pno = _a >> 12",
                 "_pg = PG(_pno)",
                 "if _pg is None:",
                 "    _pg = PAGES[_pno] = bytearray(4096)",
                 f"_pg[_a & 4095] = {_ri(s[0])} & 255")
            if self.trace:
                emit("mems.append(_a)")
            bump("stores")
        elif op == "sh":
            setup, _ = _addr(ins)
            emit(setup)
            mark_raising()
            emit(f"wh(_a, {_ri(s[0])})")
            if self.trace:
                emit("mems.append(_a)")
            bump("stores")
        elif op == "lwf":
            setup, _ = _addr(ins)
            emit(setup, f'{_fi(d)} = unpack("<f", rbs(_a, 4))[0]')
            if self.trace:
                emit("mems.append(_a)")
            bump("loads")
        elif op == "swf":
            setup, _ = _addr(ins)
            emit(setup)
            mark_raising()
            emit(f'wbs(_a, pack("<f", {_fi(s[0])}))')
            if self.trace:
                emit("mems.append(_a)")
            bump("stores")

        # -- condition codes -------------------------------------------------
        elif op in _CMP_CC:
            sym = _CMP_CC[op]
            if op in ("cmpeq", "cmpne"):
                emit(f"{_ci(d)} = {_ri(s[0])} {sym} {_ri(s[1])}")
            else:
                emit(f"{_ci(d)} = {_sgn(_ri(s[0]))} {sym} "
                     f"{_sgn(_ri(s[1]))}")
        elif op == "cmpi":
            emit(f"{_ci(d)} = {_sgn(_ri(s[0]))} < ({_imm(ins)})")
        elif op == "cand":
            emit(f"{_ci(d)} = {_ci(s[0])} and {_ci(s[1])}")
        elif op == "cor":
            emit(f"{_ci(d)} = {_ci(s[0])} or {_ci(s[1])}")
        elif op == "cxor":
            emit(f"{_ci(d)} = {_ci(s[0])} != {_ci(s[1])}")
        elif op == "cnot":
            emit(f"{_ci(d)} = not {_ci(s[0])}")
        elif op == "cmov":
            emit(f"{_ci(d)} = {_ci(s[0])}")

        # -- conditional moves -----------------------------------------------
        elif op in ("cmovt", "cmovf"):
            if skip_dest:
                return out
            cond = _ci(s[1]) if op == "cmovt" else f"not {_ci(s[1])}"
            emit(f"if {cond}:", f"    {_ri(d)} = {_ri(s[0])}")
        elif op in ("movz", "movn"):
            if skip_dest:
                return out
            sym = "==" if op == "movz" else "!="
            emit(f"if {_ri(s[1])} {sym} 0:",
                 f"    {_ri(d)} = {_ri(s[0])}")

        # -- floating point --------------------------------------------------
        elif op in ("fadd", "fsub", "fmul"):
            sym = {"fadd": "+", "fsub": "-", "fmul": "*"}[op]
            emit(f"{_fi(d)} = {_fi(s[0])} {sym} {_fi(s[1])}")
        elif op == "fdiv":
            emit(f"_fb = {_fi(s[1])}", "if _fb == 0.0:")
            self.nonlocals.add("dbz")
            emit("    dbz += 1", f"    {_fi(d)} = 0.0",
                 "else:", f"    {_fi(d)} = {_fi(s[0])} / _fb")
        elif op == "fmov":
            emit(f"{_fi(d)} = {_fi(s[0])}")
        elif op == "fneg":
            emit(f"{_fi(d)} = -{_fi(s[0])}")
        elif op in _FCMP_CC:
            emit(f"{_ci(d)} = {_fi(s[0])} {_FCMP_CC[op]} {_fi(s[1])}")
        elif op == "cvtif":
            emit(f"{_fi(d)} = float({_sgn(_ri(s[0]))})")
        elif op == "cvtfi":
            mark_raising()
            if skip_dest:
                emit(f"int({_fi(s[0])})")
            else:
                emit(f"{_ri(d)} = int({_fi(s[0])}) & {M32}")

        elif op == "fence":
            bump("fences")
        elif op == "nop":
            pass
        else:
            raise _Unsupported(f"opcode {op!r}")
        return out

    # -- control-flow terminators --------------------------------------------

    def succ_lines(self, dec: DecodedProgram, s: int) -> list:
        """Jump-to-pc statements: block return or interpreter bail."""
        if 0 <= s < dec.n and dec.block_at[s] >= 0:
            return [f"return {dec.block_at[s]}"]
        self.nonlocals.add("bail_pc")
        return [f"bail_pc = {s}", "return -3"]

    def branch_cond(self, ins) -> str:
        op = ins.op
        base = op[:-1] if ins.is_likely else op
        s = ins.srcs
        if base in ("beq", "bne"):
            sym = "==" if base == "beq" else "!="
            return f"{_ri(s[0])} {sym} {_ri(s[1])}"
        if base in ("bct", "bcf"):
            return _ci(s[0]) if base == "bct" else f"not {_ci(s[0])}"
        # Zero compares on the unsigned 32-bit value directly (register
        # writes are always masked, so sign(x) op 0 has a pure-unsigned
        # equivalent — saves the sign-extension arithmetic per branch).
        x = _ri(s[0])
        if base == "beqz":
            return f"{x} == 0"
        if base == "bnez":
            return f"{x} != 0"
        if base == "bltz":
            return f"{x} > 2147483647"
        if base == "bgez":
            return f"{x} < 2147483648"
        if base == "bgtz":
            return f"0 < {x} < 2147483648"
        if base == "blez":
            return f"{x} == 0 or {x} > 2147483647"
        raise _Unsupported(f"branch {op!r}")

    def record_lines(self, uid: int, pc: int) -> list:
        """Append ``_t`` to the branch-outcome vector of branch *uid*.

        The vector list is cached in a ``_bo<uid>`` closure slot so the
        steady state is one deref + append; creation stays lazy so the
        ``BO``/``BP`` dicts gain keys in first-execution order, exactly
        like the reference.
        """
        self.bo_uids.add(uid)
        self.nonlocals.add(f"_bo{uid}")
        return [f"if _bo{uid} is None:",
                f"    _bo{uid} = BO[{uid}] = []",
                f"    BP[{uid}] = {pc}",
                f"_bo{uid}.append(_t)"]

    def terminator_lines(self, dec: DecodedProgram, ins, pc: int) -> list:
        """Exec-arm statements of a block-ending instruction.

        Runs after ``steps`` was already advanced past the block, so the
        terminator's own dynamic step index is ``steps - 1``.
        """
        op = ins.op
        fl = dec.flags[pc]
        out: list = []
        if fl & F_HALT:
            self.nonlocals.add("bail_pc")
            return [f"bail_pc = {pc + 1}", "return -1"]
        if fl & F_BRANCH:
            out.append(f"_t = {self.branch_cond(ins)}")
            self.nonlocals.add("branches")
            out.append("branches += 1")
            if self.trace:
                out.append("brs.append(_t)")
            if self.record:
                out.extend(self.record_lines(ins.uid, pc))
            self.nonlocals.add("taken")
            out.append("if _t:")
            out.append("    taken += 1")
            out.extend("    " + ln
                       for ln in self.succ_lines(dec, dec.targets[pc]))
            out.extend(self.succ_lines(dec, pc + 1))
            return out
        if op == "j":
            self.nonlocals.add("jumps")
            out.append("jumps += 1")
            out.extend(self.succ_lines(dec, dec.targets[pc]))
            return out
        if op == "jal":
            out.append(f"{_ri(ins.dest)} = {pc + 1}")
            self.nonlocals.add("jumps")
            out.append("jumps += 1")
            out.extend(self.succ_lines(dec, dec.targets[pc]))
            return out
        if op in ("jr", "jalr"):
            out.append(f"_t = {_ri(ins.srcs[0])}")
            if op == "jalr" and ins.dest != "r0":
                out.append(f"{_ri(ins.dest)} = {pc + 1}")
            self.nonlocals.add("jumps")
            self.nonlocals.add("bail_pc")
            out.extend([
                "jumps += 1",
                f"if 0 <= _t < {dec.n}:",
                "    _nb = BA[_t]",
                "    if _nb >= 0:",
                "        return _nb",
                "bail_pc = _t",
                "return -3",
            ])
            return out
        raise _Unsupported(f"terminator {op!r}")


def _loop_lines(em: "_Emitter", dec: DecodedProgram, bid: int) -> list:
    """Checks before looping back to the head of block *bid*.

    Mirrors what the dispatch loop does between block calls: in trace
    mode a full batch hands control back, and the step budget is checked
    against the block's length, bailing to the reference at its start
    (rc 3 and rc 2 share a handler upstream).
    """
    start, end = dec.blocks[bid]
    out = []
    if em.trace:
        out += ["if len(idxs) >= FLUSH:", f"    return {bid}"]
    em.nonlocals.add("bail_pc")
    out += [f"if steps + {end - start} > max_steps:",
            f"    bail_pc = {start}",
            "    return -3",
            "continue"]
    return out


def _emit_body(dec: DecodedProgram, bid: int, em: "_Emitter") -> None:
    """Emit block *bid* into *em* as the body of a ``while True`` loop.

    An edge back to the block's own head becomes a ``continue`` — hot
    single-block loops spin without returning to the dispatch
    trampoline; every other successor is a ``return`` of its block id.
    Raises ``_Unsupported`` when *bid*'s code cannot be specialized.
    """
    start, end = dec.blocks[bid]
    blen = end - start
    instrs = dec.instrs
    last_pc = end - 1
    has_term = bool(dec.flags[last_pc] & (F_BRANCH | F_JUMP | F_HALT))
    em.put(0, f"bcounts[{bid}] += 1")
    if em.trace:
        pcs = ", ".join(str(p) for p in range(start, end))
        comma = "," if blen == 1 else ""
        em.put(0, f"idxs.extend(({pcs}{comma}))")
    body_end = last_pc if has_term else end
    for k, pc in enumerate(range(start, body_end)):
        ins = instrs[pc]
        lines = em.exec_lines(ins, pc, k, blen, bid)
        guard = dec.guards[pc]
        if guard is None:
            em.put(0, *lines)
        else:
            gci, sense = guard
            annul = ["annulled += 1"]
            em.nonlocals.add("annulled")
            if em.trace:
                annul.append(f"anns.append(steps + {k})"
                             if k else "anns.append(steps)")
            if not lines:
                neg = "not " if sense else ""
                em.put(0, f"if {neg}C[{gci}]:")
                em.put(0, *("    " + ln for ln in annul))
            else:
                em.put(0, f"if C[{gci}]:")
                first, second = (lines, annul) if sense \
                    else (annul, lines)
                em.put(0, *("    " + ln for ln in first))
                em.put(0, "else:")
                em.put(0, *("    " + ln for ln in second))
    em.put(0, f"steps += {blen}")

    def succ(s: int) -> list:
        # Loop back to the head, return the successor, or bail.
        if 0 <= s < dec.n and dec.block_at[s] >= 0:
            t = dec.block_at[s]
            if t == bid:
                return _loop_lines(em, dec, bid)
            return [f"return {t}"]
        em.nonlocals.add("bail_pc")
        return [f"bail_pc = {s}", "return -3"]

    if not has_term:
        em.put(0, *succ(end))
        return
    ins = instrs[last_pc]
    guard = dec.guards[last_pc]
    fl = dec.flags[last_pc]
    if guard is not None:
        # Guarded terminator: two live successors — keep the
        # reference-shaped arm structure.
        tlines = em.terminator_lines(dec, ins, last_pc)
        gci, sense = guard
        annul = ["annulled += 1"]
        em.nonlocals.add("annulled")
        if em.trace:
            annul.append("anns.append(steps - 1)")
        if fl & F_HALT:
            em.nonlocals.add("bail_pc")
            annul += [f"bail_pc = {last_pc + 1}", "return -1"]
        else:
            annul += em.succ_lines(dec, last_pc + 1)
        em.put(0, f"if C[{gci}]:")
        first, second = (tlines, annul) if sense else (annul, tlines)
        em.put(0, *("    " + ln for ln in first))
        em.put(0, "else:")
        em.put(0, *("    " + ln for ln in second))
        return
    if fl & F_BRANCH:
        em.put(0, f"_t = {em.branch_cond(ins)}")
        em.nonlocals.add("branches")
        em.put(0, "branches += 1")
        if em.trace:
            em.put(0, "brs.append(_t)")
        if em.record:
            em.put(0, *em.record_lines(ins.uid, last_pc))
        em.nonlocals.add("taken")
        em.put(0, "if _t:")
        em.put(0, "    taken += 1")
        em.put(0, *("    " + ln for ln in succ(dec.targets[last_pc])))
        em.put(0, *succ(last_pc + 1))
        return
    if ins.op in ("j", "jal"):
        # Static jump: a loop closer spins in place like a branch.
        if ins.op == "jal":
            em.put(0, f"{_ri(ins.dest)} = {last_pc + 1}")
        em.nonlocals.add("jumps")
        em.put(0, "jumps += 1")
        em.put(0, *succ(dec.targets[last_pc]))
        return
    # halt / jr / jalr: single exit.
    em.put(0, *em.terminator_lines(dec, ins, last_pc))


def _emit_block(dec: DecodedProgram, bid: int, record: bool,
                trace: bool) -> tuple:
    """(lines, bailed, bo_uids) for one block function ``b<bid>``."""
    start, _end = dec.blocks[bid]
    em = _Emitter(record, trace)
    try:
        _emit_body(dec, bid, em)
    except (_Unsupported, DecodeError):
        # Bail block: the reference interpreter takes over at block start
        # (and reproduces any UnmodeledOpcode/odd-operand behavior
        # exactly, at reference speed).
        return ([f"    def b{bid}():",
                 "        nonlocal bail_pc",
                 f"        bail_pc = {start}",
                 "        return -3"], True, set())
    out = [f"    def b{bid}():"]
    nl = sorted(em.nonlocals)
    out.append(f"        nonlocal {', '.join(nl)}")
    out.append("        while True:")
    for ind, text in em.lines:
        out.append("            " + "    " * ind + text)
    return out, False, em.bo_uids


def generate_source(dec: DecodedProgram, *, record: bool,
                    trace: bool) -> tuple:
    """Source text of the specialized module; returns (source, n_bailed)."""
    nblocks = len(dec.blocks)
    out = [
        "def _make(ctx):",
        '    mem = ctx["mem"]',
        "    rw = mem.read_word; ww = mem.write_word",
        "    rb = mem.read_byte; wb = mem.write_byte",
        "    rh = mem.read_half; wh = mem.write_half",
        "    rbs = mem.read_bytes; wbs = mem.write_bytes",
        "    PAGES = mem._pages; PG = PAGES.get",
        '    U32 = ctx["U32"]; P32 = ctx["P32"]',
        '    unpack = ctx["unpack"]; pack = ctx["pack"]',
        '    R = ctx["R"]; F = ctx["F"]; C = ctx["C"]',
        '    bcounts = ctx["bcounts"]',
        '    BA = ctx["block_at"]',
        '    max_steps = ctx["max_steps"]',
        '    LENS = ctx["lens"]; STARTS = ctx["starts"]',
        "    LIMIT = max_steps - max(LENS, default=0)",
        "    steps = 0; annulled = 0; branches = 0; taken = 0; jumps = 0",
        "    loads = 0; stores = 0; dbz = 0; fences = 0",
        "    bail_pc = -1; err = None; entry = 0",
    ]
    if record:
        out.append('    BO = ctx["BO"]; BP = ctx["BP"]')
    if trace:
        out.append('    idxs = ctx["idxs"]; brs = ctx["brs"]')
        out.append('    mems = ctx["mems"]; anns = ctx["anns"]')
        out.append('    FLUSH = ctx["flush"]')
    n_bailed = 0
    blines: list = []
    bo_uids: set = set()
    for bid in range(nblocks):
        lines, bailed, uids = _emit_block(dec, bid, record, trace)
        n_bailed += bailed
        bo_uids |= uids
        blines.extend(lines)
    for uid in sorted(bo_uids):
        out.append(f"    _bo{uid} = None")
    out.extend(blines)
    names = ", ".join(f"b{i}" for i in range(nblocks))
    comma = "," if nblocks == 1 else ""
    out.append(f"    FNS = ({names}{comma})")
    # Below LIMIT every block fits the step budget, so the exact check
    # runs only near the end.
    out += [
        "    def drive():",
        "        nonlocal entry, bail_pc",
        "        bid = entry",
        "        fns = FNS; lens = LENS; limit = LIMIT",
        "        while True:",
        "            if steps > limit and steps + lens[bid] > max_steps:",
        "                bail_pc = STARTS[bid]",
        "                return 2",
        "            bid = fns[bid]()",
        "            if bid < 0:",
        "                return 0 if bid == -1 else 3",
    ]
    if trace:
        out += [
            "            if len(idxs) >= FLUSH:",
            "                entry = bid",
            "                return 1",
        ]
    if trace:
        out += [
            "    def swap(a, b, c, d):",
            "        nonlocal idxs, brs, mems, anns",
            "        idxs = a; brs = b; mems = c; anns = d",
        ]
    else:
        out.append("    swap = None")
    out += [
        "    def snapshot():",
        '        return {"steps": steps, "annulled": annulled,',
        '                "branches": branches, "taken_branches": taken,',
        '                "jumps": jumps, "loads": loads, "stores": stores,',
        '                "div_by_zero": dbz, "fences": fences,',
        '                "bail_pc": bail_pc, "err": err}',
        "    return drive, swap, snapshot",
    ]
    return "\n".join(out) + "\n", n_bailed


def get_compiled(dec: DecodedProgram, *, record: bool,
                 trace: bool) -> CompiledFunctional:
    """Compile (or fetch the cached) codegen variant of *dec*."""
    key = (bool(record), bool(trace))
    if _SOURCE_TRANSFORM is None:
        hit = dec._compiled.get(key)
        if hit is not None:
            return hit
    src, n_bailed = generate_source(dec, record=record, trace=trace)
    if _SOURCE_TRANSFORM is not None:
        src = _SOURCE_TRANSFORM(src)
    tag = ("r" if record else "") + ("t" if trace else "s")
    code = compile(src, f"<fastsim:{dec.name}:{tag}>", "exec")
    compiled = CompiledFunctional(src, code, n_bailed, record, trace)
    if _SOURCE_TRANSFORM is None:
        dec._compiled[key] = compiled
    return compiled

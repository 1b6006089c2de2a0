"""xlisp — bytecode interpreter with jump-table dispatch.

Models the paper's `xlisp` benchmark: interpreter-style code dominated by
indirect dispatch.  The dispatch is a **register-relative jump through a
jump table** (``jr``) — exactly the class of branch the paper points out
"cannot be registered in the BTB" and stalls realistic fetch (Section 6),
which is why xlisp shows the lowest IPC of the four benchmarks.

The hosted VM is a small stack machine (push-immediate / arithmetic /
variable load-store / conditional jump).  The interpreted bytecode runs an
iterative ``acc = acc * 3 + k`` reduction for ``k = K .. 1``, leaving the
result in ``r17``.

:func:`xlisp_reference` is the bit-exact Python model used by tests.
"""

from __future__ import annotations

from ..isa.parser import parse
from ..isa.program import Program
from .common import AUX_BASE, MASK32, SRC_BASE

# VM opcodes.
OP_HALT, OP_PUSHI, OP_ADD, OP_SUB, OP_MUL = 0, 1, 2, 3, 4
OP_DUP, OP_JGZ, OP_JMP, OP_LOAD, OP_STORE = 5, 6, 7, 8, 9


def vm_bytecode(k: int) -> list[tuple[int, int]]:
    """The interpreted program: acc=1; while k>0: acc=acc*3+k; k-=1."""
    return [
        (OP_PUSHI, 1),   # 0
        (OP_STORE, 0),   # 1  acc = 1
        (OP_PUSHI, k),   # 2
        (OP_STORE, 1),   # 3  k
        (OP_LOAD, 0),    # 4  loop:
        (OP_PUSHI, 3),   # 5
        (OP_MUL, 0),     # 6
        (OP_LOAD, 1),    # 7
        (OP_ADD, 0),     # 8
        (OP_STORE, 0),   # 9  acc = acc*3 + k
        (OP_LOAD, 1),    # 10
        (OP_PUSHI, 1),   # 11
        (OP_SUB, 0),     # 12
        (OP_DUP, 0),     # 13
        (OP_STORE, 1),   # 14 k -= 1 (dup keeps a copy for the test)
        (OP_JGZ, 4),     # 15 loop while k > 0
        (OP_LOAD, 0),    # 16
        (OP_HALT, 0),    # 17 result on top of stack
    ]


def xlisp_source(k: int = 600) -> str:
    """Assembly text of the interpreter + bytecode for *k* VM iterations."""
    code_words = []
    for op, arg in vm_bytecode(k):
        code_words.append(str(op))
        code_words.append(str(arg))
    table = ", ".join(f"&op_{name}" for name in (
        "halt", "pushi", "add", "sub", "mul", "dup", "jgz", "jmp", "load",
        "store"))
    return f"""
# xlisp: stack-VM interpreter with jr jump-table dispatch (K={k})
.data
vmcode:  .word {", ".join(code_words)}
vmtable: .word {table}
.text
main:
    li   r1, {SRC_BASE}          # VM stack base
    li   r2, 0                   # sp (index of next free slot)
    li   r3, 0                   # VM pc
    la   r5, vmcode
    la   r6, vmtable
    li   r15, {SRC_BASE + 0x10000}   # VM variable slots
dispatch:
    sll  r7, r3, 3               # 8 bytes per VM instruction
    add  r7, r5, r7
    lw   r10, 0(r7)              # op
    lw   r11, 4(r7)              # arg
    addi r3, r3, 1
    # opcode accounting (VM profiling): the branch direction follows the
    # interpreted program's opcode sequence — individually mispredicted at
    # every store opcode, and a natural guarded-execution target.
    subi r8, r10, {OP_STORE}
    bnez r8, not_store
    addi r18, r18, 1             # store-class opcode
not_store:
    addi r19, r19, 1             # total dispatched
    sll  r12, r10, 2
    add  r12, r6, r12
    lw   r13, 0(r12)             # handler index
    jr   r13                     # register-relative: no BTB entry

op_pushi:
    sll  r7, r2, 2
    add  r7, r1, r7
    sw   r11, 0(r7)
    addi r2, r2, 1
    j    dispatch
op_add:
    subi r2, r2, 2
    sll  r7, r2, 2
    add  r7, r1, r7
    lw   r13, 0(r7)
    lw   r14, 4(r7)
    add  r13, r13, r14
    sw   r13, 0(r7)
    addi r2, r2, 1
    j    dispatch
op_sub:
    subi r2, r2, 2
    sll  r7, r2, 2
    add  r7, r1, r7
    lw   r13, 0(r7)
    lw   r14, 4(r7)
    sub  r13, r13, r14
    sw   r13, 0(r7)
    addi r2, r2, 1
    j    dispatch
op_mul:
    subi r2, r2, 2
    sll  r7, r2, 2
    add  r7, r1, r7
    lw   r13, 0(r7)
    lw   r14, 4(r7)
    mul  r13, r13, r14
    sw   r13, 0(r7)
    addi r2, r2, 1
    j    dispatch
op_dup:
    subi r7, r2, 1
    sll  r7, r7, 2
    add  r7, r1, r7
    lw   r13, 0(r7)
    sw   r13, 4(r7)
    addi r2, r2, 1
    j    dispatch
op_jgz:
    subi r2, r2, 1
    sll  r7, r2, 2
    add  r7, r1, r7
    lw   r13, 0(r7)
    blez r13, dispatch           # not taken while the VM loop runs
    mov  r3, r11                 # jump: pc = arg
    j    dispatch
op_jmp:
    mov  r3, r11
    j    dispatch
op_load:
    sll  r7, r11, 2
    add  r7, r15, r7
    lw   r13, 0(r7)
    sll  r7, r2, 2
    add  r7, r1, r7
    sw   r13, 0(r7)
    addi r2, r2, 1
    j    dispatch
op_store:
    subi r2, r2, 1
    sll  r7, r2, 2
    add  r7, r1, r7
    lw   r13, 0(r7)
    sll  r7, r11, 2
    add  r7, r15, r7
    sw   r13, 0(r7)
    j    dispatch
op_halt:
    subi r2, r2, 1
    sll  r7, r2, 2
    add  r7, r1, r7
    lw   r17, 0(r7)              # VM result
    li   r7, {AUX_BASE}
    sw   r17, 0(r7)
    sw   r18, 4(r7)              # store-class opcode count
    sw   r19, 8(r7)              # total opcodes dispatched
    halt
"""


def xlisp_program(k: int = 600) -> Program:
    """Parsed, validated xlisp kernel."""
    return parse(xlisp_source(k), name="xlisp")


def xlisp_reference(k: int = 600) -> int:
    """Python model of the interpreted program; returns the VM result."""
    acc = 1
    kk = k
    while kk > 0:
        acc = (acc * 3 + kk) & MASK32
        kk -= 1
    return acc


def xlisp_opcode_counts(k: int = 600) -> tuple[int, int]:
    """Reference opcode counts: (store-class dispatches, total dispatches)."""
    code = vm_bytecode(k)
    stores = total = 0
    pc = 0
    stack: list[int] = []
    vars: dict[int, int] = {}
    while True:
        op, arg = code[pc]
        pc += 1
        total += 1
        if op == OP_STORE:
            stores += 1
        if op == OP_HALT:
            break
        if op == OP_PUSHI:
            stack.append(arg)
        elif op == OP_ADD:
            b, a = stack.pop(), stack.pop()
            stack.append((a + b) & MASK32)
        elif op == OP_SUB:
            b, a = stack.pop(), stack.pop()
            stack.append((a - b) & MASK32)
        elif op == OP_MUL:
            b, a = stack.pop(), stack.pop()
            stack.append((a * b) & MASK32)
        elif op == OP_DUP:
            stack.append(stack[-1])
        elif op == OP_JGZ:
            v = stack.pop()
            if 0 < v < 0x8000_0000:
                pc = arg
        elif op == OP_JMP:
            pc = arg
        elif op == OP_LOAD:
            stack.append(vars.get(arg, 0))
        elif op == OP_STORE:
            vars[arg] = stack.pop()
    return stores, total

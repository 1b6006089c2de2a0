"""IR verifier: clean pipelines verify clean; every violation class fires."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import compile_baseline, compile_proposed
from repro.isa import parse
from repro.isa.instruction import Guard, Instruction
from repro.isa.opcodes import OPCODES
from repro.isa.program import Program
from repro.isa.randprog import random_program
from repro.isa.registers import CC_REGS, FP_REGS, INT_REGS
from repro.robust import VerificationError, assert_valid, verify_program
from repro.robust.verifier import _check_registers, _diagnose_registers

TINY = """.text
main:
    li   r1, 5
    li   r2, 7
    beq  r1, r2, skip
    add  r3, r1, r2
skip:
    halt
"""


def _tiny():
    return parse(TINY, name="tiny")


def test_clean_program_verifies():
    assert verify_program(_tiny()) == []


@pytest.mark.parametrize("seed", range(3))
def test_pipelines_emit_verified_ir(seed):
    prog = random_program(seed)
    for result in (compile_baseline(prog), compile_proposed(prog)):
        assert verify_program(result.program) == []


def test_dangling_target_flagged():
    prog = _tiny()
    prog.instructions[2].target = ".nowhere"
    assert any(v.check == "targets" for v in verify_program(prog))


def test_label_out_of_range_flagged():
    prog = _tiny()
    prog.labels["skip"] = len(prog.instructions) + 7
    assert any(v.check in ("labels", "targets")
               for v in verify_program(prog))


def test_wrong_register_class_flagged():
    prog = _tiny()
    # Mutate behind the Instruction constructor's back, the way a buggy
    # in-place pass would.
    prog.instructions[3].srcs = ("r1", "cc0")
    assert any(v.check == "registers" for v in verify_program(prog))


def test_bogus_register_name_flagged():
    prog = _tiny()
    prog.instructions[3].srcs = ("r1", "q7")
    assert any(v.check == "registers" for v in verify_program(prog))


def test_stale_guard_flagged():
    prog = _tiny()
    prog.instructions[3].guard = Guard("cc3", sense=True)
    vs = verify_program(prog)
    assert any(v.check == "guards" for v in vs)


def test_defined_guard_accepted():
    prog = parse(""".text
main:
    li     r1, 5
    li     r2, 7
    cmplt  cc0, r1, r2
    (cc0) add r3, r1, r2
    halt
""", name="guarded")
    assert verify_program(prog) == []


def test_fall_off_end_flagged():
    prog = parse(".text\nmain:\n    li r1, 1\n    add r2, r1, r1\n    halt\n",
                 name="no-halt")
    prog.instructions.pop()  # a buggy pass dropped the terminator
    assert any(v.check == "structure" for v in verify_program(prog))


def test_assert_valid_raises_with_diagnosis():
    prog = _tiny()
    prog.instructions[2].target = ".nowhere"
    with pytest.raises(VerificationError, match="dangling target"):
        assert_valid(prog)


# -- register check vs the per-operand diagnosis ------------------------------

#: A mnemonic no opcode table entry has, as the unknown-opcode fault writes.
UNKNOWN_OP = "__undocumented_op__"
_OPERAND = st.sampled_from(INT_REGS + FP_REGS + CC_REGS
                           + ("q7", "r32", "cc8", "f-1", "R1", ""))
#: (rewritten mnemonic or None, dest, srcs, guard).  Operands mostly come
#: from one class per instruction, so clean operand lists occur too.
_CORRUPTION = st.one_of(*(
    st.tuples(st.none() | st.sampled_from(sorted(OPCODES) + [UNKNOWN_OP]),
              st.none() | operand, st.lists(operand, max_size=3),
              st.none() | _OPERAND.map(Guard))
    for operand in (st.sampled_from(regs) | _OPERAND
                    for regs in (INT_REGS, FP_REGS, CC_REGS))))


def _corrupted(op, corruption):
    """An *op* instruction whose fields are then written in place, past
    the constructor's validation, the way robust.faults corrupts them:
    the mnemonic may be rewritten (leaving the cached format stale) and
    operands and guard come from every register class and none."""
    mnemonic, dest, srcs, guard = corruption
    ins = Instruction(op)
    ins.op = mnemonic or op
    ins.dest, ins.srcs, ins.guard = dest, tuple(srcs), guard
    return ins


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(_CORRUPTION, min_size=len(OPCODES), max_size=len(OPCODES)))
# Stray operands that only a few opcodes leave unconstrained: a source
# past lwf's or a cmov's class list, and a branch's destination.
@example([(None, "f1", ["r2", "q7"], None)] * len(OPCODES))
@example([(None, "r1", ["r2", "cc1", "q7"], None)] * len(OPCODES))
@example([(None, "q7", ["r1", "r2"], None)] * len(OPCODES))
def test_register_check_equals_per_operand_diagnosis(corruptions):
    # One instruction per opcode table entry in every example.
    instrs = [_corrupted(op, c)
              for op, c in zip(sorted(OPCODES), corruptions)]
    prog = Program(instructions=instrs)
    want = [v for i, ins in enumerate(instrs)
            for v in _diagnose_registers(i, ins)]
    assert list(_check_registers(prog)) == want

"""Functional executor: ISA semantics, traces, branch outcome recording."""

import pytest

from repro.isa import parse
from repro.sim.functional import (
    ExecutionLimitExceeded, FunctionalSim, final_state, run_program, to_signed,
)


def run_src(src, **kw):
    return final_state(parse(".text\n" + src), **kw)


# ---- arithmetic -----------------------------------------------------------------

def test_add_sub():
    s = run_src("li r1, 7\nli r2, 5\nadd r3, r1, r2\nsub r4, r1, r2\nhalt\n")
    assert s.regs["r3"] == 12
    assert s.regs["r4"] == 2


def test_wraparound():
    s = run_src("li r1, 0x7FFFFFFF\naddi r2, r1, 1\nhalt\n")
    assert s.regs["r2"] == 0x80000000
    assert to_signed(s.regs["r2"]) == -(1 << 31)


def test_negative_values():
    s = run_src("li r1, 3\nli r2, 10\nsub r3, r1, r2\nhalt\n")
    assert to_signed(s.regs["r3"]) == -7


def test_mul_div_rem():
    s = run_src("li r1, -7\nli r2, 2\nmul r3, r1, r2\ndiv r4, r1, r2\n"
                "rem r5, r1, r2\nhalt\n")
    assert to_signed(s.regs["r3"]) == -14
    assert to_signed(s.regs["r4"]) == -3  # truncation toward zero
    assert to_signed(s.regs["r5"]) == -1


def test_div_by_zero_yields_zero():
    s = run_src("li r1, 5\nli r2, 0\ndiv r3, r1, r2\nhalt\n")
    assert s.regs["r3"] == 0
    assert s.stats.div_by_zero == 1


def test_logic_ops():
    s = run_src("li r1, 0xF0\nli r2, 0x0F\nand r3, r1, r2\nor r4, r1, r2\n"
                "xor r5, r1, r2\nnor r6, r1, r2\nhalt\n")
    assert s.regs["r3"] == 0
    assert s.regs["r4"] == 0xFF
    assert s.regs["r5"] == 0xFF
    assert s.regs["r6"] == 0xFFFFFF00


def test_shifts():
    s = run_src("li r1, -8\nsrl r2, r1, 1\nsra r3, r1, 1\nsll r4, r1, 1\nhalt\n")
    assert s.regs["r2"] == 0x7FFFFFFC
    assert to_signed(s.regs["r3"]) == -4
    assert to_signed(s.regs["r4"]) == -16


def test_set_compare():
    s = run_src("li r1, -1\nli r2, 1\nslt r3, r1, r2\nsltu r4, r1, r2\n"
                "seq r5, r1, r2\nsne r6, r1, r2\nhalt\n")
    assert s.regs["r3"] == 1      # signed: -1 < 1
    assert s.regs["r4"] == 0      # unsigned: 0xFFFFFFFF > 1
    assert s.regs["r5"] == 0
    assert s.regs["r6"] == 1


def test_r0_immutable():
    s = run_src("li r0, 99\nadd r1, r0, r0\nhalt\n")
    assert s.regs["r0"] == 0
    assert s.regs["r1"] == 0


def test_lui():
    s = run_src("lui r1, 0x1234\nhalt\n")
    assert s.regs["r1"] == 0x12340000


# ---- memory -----------------------------------------------------------------------

def test_load_store_word():
    s = run_src("li r1, 0x1000\nli r2, 0xCAFE\nsw r2, 4(r1)\nlw r3, 4(r1)\nhalt\n")
    assert s.regs["r3"] == 0xCAFE
    assert s.stats.loads == 1
    assert s.stats.stores == 1


def test_byte_sign_extension():
    s = run_src("li r1, 0x1000\nli r2, 0x80\nsb r2, 0(r1)\n"
                "lb r3, 0(r1)\nlbu r4, 0(r1)\nhalt\n")
    assert to_signed(s.regs["r3"]) == -128
    assert s.regs["r4"] == 0x80


def test_half_sign_extension():
    s = run_src("li r1, 0x1000\nli r2, 0x8000\nsh r2, 0(r1)\n"
                "lh r3, 0(r1)\nlhu r4, 0(r1)\nhalt\n")
    assert to_signed(s.regs["r3"]) == -32768
    assert s.regs["r4"] == 0x8000


def test_data_segment_loaded():
    prog = parse(".data\nv: .word 42\n.text\nla r1, v\nlw r2, 0(r1)\nhalt\n")
    s = final_state(prog)
    assert s.regs["r2"] == 42


# ---- control flow ------------------------------------------------------------------

def test_loop_counts():
    s = run_src("""
    li r1, 0
    li r2, 10
L:
    addi r1, r1, 1
    bne r1, r2, L
    halt
""")
    assert s.regs["r1"] == 10
    assert s.stats.branches == 10
    assert s.stats.taken_branches == 9


def test_branch_outcome_bitvector():
    prog = parse("""
.text
    li r1, 0
    li r2, 3
L:
    addi r1, r1, 1
    bne r1, r2, L
    halt
""")
    sim = FunctionalSim(prog)
    sim.run()
    (outcomes,) = sim.stats.branch_outcomes.values()
    assert outcomes == [True, True, False]


def test_jal_jr():
    s = run_src("""
    jal f
    li r2, 1
    halt
f:
    li r1, 42
    jr r31
""")
    assert s.regs["r1"] == 42
    assert s.regs["r2"] == 1


def test_branch_likely_semantics_match_plain():
    plain = run_src("li r1, 0\nli r2, 5\nL:\naddi r1, r1, 1\nbne r1, r2, L\nhalt\n")
    likely = run_src("li r1, 0\nli r2, 5\nL:\naddi r1, r1, 1\nbnel r1, r2, L\nhalt\n")
    assert plain.regs["r1"] == likely.regs["r1"] == 5


def test_cc_branches():
    s = run_src("li r1, 3\nli r2, 3\ncmpeq cc0, r1, r2\nbct cc0, Y\n"
                "li r3, 0\nhalt\nY:\nli r3, 1\nhalt\n")
    assert s.regs["r3"] == 1


def test_infinite_loop_detected():
    prog = parse(".text\nL:\nj L\n")
    with pytest.raises(ExecutionLimitExceeded):
        FunctionalSim(prog, max_steps=1000).run()


# ---- guards and conditional moves ----------------------------------------------------

def test_guard_annuls():
    s = run_src("li r1, 1\ncmpeq cc0, r1, r0\n(cc0) li r2, 99\n"
                "(!cc0) li r3, 77\nhalt\n")
    assert s.regs["r2"] == 0      # cc0 false: annulled
    assert s.regs["r3"] == 77     # negative-sense guard fires
    assert s.stats.annulled == 1


def test_annulled_in_trace():
    prog = parse(".text\ncmpeq cc0, r1, r1\n(!cc0) li r2, 5\nhalt\n")
    sim = FunctionalSim(prog)
    entries = list(sim.trace())
    assert [e.annulled for e in entries] == [False, True, False]


def test_cmovt_cmovf():
    s = run_src("li r1, 10\nli r2, 20\ncmpgt cc1, r1, r2\n"
                "cmovt r3, r1, cc1\ncmovf r3, r2, cc1\nhalt\n")
    assert s.regs["r3"] == 20


def test_movz_movn():
    s = run_src("li r1, 5\nli r2, 0\nmovz r3, r1, r2\nmovn r4, r1, r2\nhalt\n")
    assert s.regs["r3"] == 5
    assert s.regs["r4"] == 0


# ---- fp --------------------------------------------------------------------------------

def test_fp_roundtrip():
    s = run_src("li r1, 3\ncvtif f1, r1\nli r2, 4\ncvtif f2, r2\n"
                "fadd f3, f1, f2\nfmul f4, f1, f2\ncvtfi r3, f3\n"
                "cvtfi r4, f4\nhalt\n")
    assert s.regs["r3"] == 7
    assert s.regs["r4"] == 12


def test_fp_memory():
    s = run_src("li r1, 0x2000\nli r2, 5\ncvtif f1, r2\nswf f1, 0(r1)\n"
                "lwf f2, 0(r1)\ncvtfi r3, f2\nhalt\n")
    assert s.regs["r3"] == 5


# ---- stats -------------------------------------------------------------------------------

def test_branch_ratio():
    s = run_src("li r1, 0\nli r2, 4\nL:\naddi r1, r1, 1\nbne r1, r2, L\nhalt\n")
    st = s.stats
    # steps: 2 + 4*2 + 1 = 11; branches 4
    assert st.steps == 11
    assert st.branches == 4


def test_trace_entries_have_addresses():
    prog = parse(".text\nli r1, 0x1000\nsw r1, 0(r1)\nlw r2, 0(r1)\nhalt\n")
    sim = FunctionalSim(prog)
    entries = list(sim.trace())
    assert entries[1].addr == 0x1000
    assert entries[2].addr == 0x1000

"""Parser/printer round-trip and basic ISA behavior."""

import pytest

from repro.isa import (
    Guard, Instruction, ParseError, format_program, make, parse,
)

SAMPLE = """
.data
buf:    .word 1, 2, 3
msg:    .asciiz "hi"
.text
main:
    li   r1, 0
    la   r2, buf
    lw   r3, 0(r2)
loop:
    addi r1, r1, 1
    bne  r1, r3, loop
    (cc1) add r4, r5, r6
    (!cc2) mov r7, r8
    sw   r1, 4(r2)
    halt
"""


def test_parse_sample():
    prog = parse(SAMPLE)
    assert len(prog) == 9
    assert prog.labels["main"] == 0
    assert prog.labels["loop"] == 3
    assert prog.data_symbols["buf"] % 4 == 0
    assert prog.data_symbols["msg"] == prog.data_symbols["buf"] + 12


def test_la_resolves_to_li():
    prog = parse(SAMPLE)
    la = prog[1]
    assert la.op == "li"
    assert la.imm == prog.data_symbols["buf"]


def test_guards_parse():
    prog = parse(SAMPLE)
    g1 = prog[5]
    assert g1.guard == Guard("cc1", True)
    g2 = prog[6]
    assert g2.guard == Guard("cc2", False)


def test_roundtrip_preserves_semantics():
    prog = parse(SAMPLE)
    text = format_program(prog)
    prog2 = parse(text)
    assert len(prog2) == len(prog)
    for a, b in zip(prog, prog2):
        assert a.op == b.op
        assert a.dest == b.dest
        assert a.srcs == b.srcs
        assert a.imm == b.imm
        assert a.target == b.target
        assert a.guard == b.guard
    assert {k: v for k, v in prog2.labels.items() if not k.startswith(".")} \
        == {k: v for k, v in prog.labels.items() if not k.startswith(".")}


def test_data_word_image_little_endian():
    prog = parse(".data\nw: .word 0x11223344\n.text\nhalt\n")
    a = prog.data_symbols["w"]
    assert [prog.data_image[a + i] for i in range(4)] == [0x44, 0x33, 0x22, 0x11]


def test_asciiz_nul_terminated():
    prog = parse('.data\ns: .asciiz "ab"\n.text\nhalt\n')
    a = prog.data_symbols["s"]
    assert [prog.data_image[a + i] for i in range(3)] == [0x61, 0x62, 0]


def test_undefined_label_rejected():
    with pytest.raises(ValueError):
        parse(".text\nbeq r1, r2, nowhere\nhalt\n")


def test_unknown_opcode_rejected():
    with pytest.raises(ParseError):
        parse(".text\nfrobnicate r1\nhalt\n")


def test_guard_must_name_a_cc_register():
    # cc0..cc7 exist; a guard on any other name is the same parse error
    # as that name in an operand, not a KeyError in the simulator.
    prog = parse(".text\n(cc7) add r2, r2, r1\nhalt\n")
    assert prog[0].guard == Guard("cc7", True)
    for reg in ("cc8", "cc9"):
        with pytest.raises(ParseError, match=f"bad guard register '{reg}'"):
            parse(f".text\n(!{reg}) add r2, r2, r1\nhalt\n")


def test_program_must_terminate():
    with pytest.raises(ValueError):
        parse(".text\nadd r1, r2, r3\n")


def test_duplicate_label_rejected():
    with pytest.raises(ValueError):
        parse(".text\nx:\nnop\nx:\nhalt\n")


def test_comments_and_semicolons():
    prog = parse(".text\nnop  # c1\nnop  ; c2\nhalt\n")
    assert len(prog) == 3


def test_char_immediate():
    prog = parse(".text\nli r1, 'a'\nhalt\n")
    assert prog[0].imm == ord("a")


def test_negative_and_hex_immediates():
    prog = parse(".text\naddi r1, r2, -5\nli r3, 0x10\nhalt\n")
    assert prog[0].imm == -5
    assert prog[1].imm == 16


def test_defs_uses():
    ins = make("add", "r1", "r2", "r3")
    assert ins.defs() == ("r1",)
    assert ins.uses() == ("r2", "r3")


def test_r0_write_is_no_def():
    ins = make("add", "r0", "r2", "r3")
    assert ins.defs() == ()


def test_cmov_uses_dest():
    ins = make("cmovt", "r1", "r2", "cc0")
    assert "r1" in ins.uses()
    assert "cc0" in ins.uses()


def test_guard_register_is_a_use():
    ins = make("add", "r1", "r2", "r3", guard=Guard("cc1"))
    assert "cc1" in ins.uses()


def test_store_has_no_defs():
    ins = make("sw", "r1", 0, "r2")
    assert ins.defs() == ()
    assert ins.uses() == ("r1", "r2")


def test_jal_defines_ra():
    prog = parse(".text\nf:\njal f\nhalt\n")
    assert prog[0].defs() == ("r31",)


def test_clone_fresh_uid():
    ins = make("add", "r1", "r2", "r3")
    c = ins.clone(fresh_uid=True)
    assert c.uid != ins.uid
    assert c.op == ins.op


def test_with_substituted_uses():
    ins = make("add", "r1", "r2", "r3")
    sub = ins.with_substituted_uses({"r2": "r9"})
    assert sub.srcs == ("r9", "r3")
    assert ins.srcs == ("r2", "r3")


def test_make_rejects_arity_errors():
    with pytest.raises(ValueError):
        make("add", "r1", "r2")


def test_make_rejects_bad_register():
    with pytest.raises(ValueError):
        make("add", "r99", "r2", "r3")

"""If-conversion (guarded execution) tests."""

import pytest

from repro.cfg import build_cfg
from repro.isa import parse
from repro.transform import find_diamond, if_convert_diamond
from tests.transform.conftest import assert_equivalent

DIAMOND = """
.text
main:
    li  r1, {r1}
    li  r2, 5
    li  r7, 3
    beq r1, r2, L1
    add r3, r7, r7      # fall arm
    subi r4, r7, 1
    j   join
L1:
    sub r3, r7, r7      # taken arm
    addi r4, r7, 10
join:
    add r5, r3, r4
    sw  r5, 0(r29)
    halt
"""

TRIANGLE = """
.text
main:
    li  r1, {r1}
    li  r2, 5
    li  r3, 100
    beq r1, r2, join
    addi r3, r3, 11     # executed only when branch NOT taken
join:
    sw  r3, 0(r29)
    halt
"""


def labels_of(cfg):
    return {bb.label: bb for bb in cfg.blocks if bb.label}


def test_find_diamond():
    cfg = build_cfg(DIAMOND.format(r1=5))
    lab = labels_of(cfg)
    shape = find_diamond(cfg, lab["main"].bid)
    assert shape is not None
    fall, taken, join = shape
    assert cfg.block(taken).label == "L1"
    assert cfg.block(join).label == "join"


def test_find_diamond_rejects_straightline():
    cfg = build_cfg(".text\nli r1, 1\nhalt\n")
    assert find_diamond(cfg, cfg.entry.bid) is None


def test_if_convert_structure():
    cfg = build_cfg(DIAMOND.format(r1=5))
    lab = labels_of(cfg)
    res = if_convert_diamond(cfg, lab["main"].bid)
    assert res is not None
    assert res.guarded_ops == 4
    head = cfg.block(res.head)
    # No branch remains in the head; it falls through to the join.
    assert head.terminator is None
    assert len(cfg.succs(res.head)) == 1
    # Both guard senses present.
    senses = {i.guard.sense for i in head.instructions if i.guard}
    assert senses == {True, False}


def test_if_convert_semantics_taken():
    src = DIAMOND.format(r1=5)  # branch taken
    cfg = build_cfg(src)
    lab = labels_of(cfg)
    if_convert_diamond(cfg, lab["main"].bid)
    assert_equivalent(parse(src), cfg.to_program(),
                      regs=["r1", "r2", "r3", "r4", "r5", "r7"])


def test_if_convert_semantics_not_taken():
    src = DIAMOND.format(r1=6)  # branch falls through
    cfg = build_cfg(src)
    lab = labels_of(cfg)
    if_convert_diamond(cfg, lab["main"].bid)
    assert_equivalent(parse(src), cfg.to_program(),
                      regs=["r1", "r2", "r3", "r4", "r5", "r7"])


@pytest.mark.parametrize("r1", [5, 6])
def test_if_convert_triangle(r1):
    src = TRIANGLE.format(r1=r1)
    cfg = build_cfg(src)
    lab = labels_of(cfg)
    res = if_convert_diamond(cfg, lab["main"].bid)
    assert res is not None
    assert res.guarded_ops == 1
    assert_equivalent(parse(src), cfg.to_program(),
                      regs=["r1", "r2", "r3"])


def test_if_convert_removes_branch_and_blocks():
    cfg = build_cfg(DIAMOND.format(r1=5))
    nblocks = len(cfg.blocks)
    lab = labels_of(cfg)
    if_convert_diamond(cfg, lab["main"].bid)
    assert len(cfg.blocks) == nblocks - 2
    prog = cfg.to_program()
    assert not any(i.is_branch for i in prog)


def test_if_convert_rejects_arm_with_call():
    src = """
.text
main:
    beq r1, r2, L1
    jal f
    j   join
L1:
    li  r3, 1
join:
    halt
f:
    jr r31
"""
    cfg = build_cfg(src)
    lab = labels_of(cfg)
    assert if_convert_diamond(cfg, lab["main"].bid) is None


def test_if_convert_rejects_no_free_cc():
    from repro.isa.registers import RegisterPool

    cfg = build_cfg(DIAMOND.format(r1=5))
    lab = labels_of(cfg)
    assert if_convert_diamond(cfg, lab["main"].bid,
                              cc_pool=RegisterPool([])) is None


def test_guarded_stores_supported_functionally():
    src = """
.text
main:
    li  r1, 5
    li  r2, 5
    li  r7, 9
    beq r1, r2, L1
    sw  r7, 0(r29)
    j   join
L1:
    sw  r7, 4(r29)
join:
    halt
"""
    cfg = build_cfg(src)
    lab = labels_of(cfg)
    res = if_convert_diamond(cfg, lab["main"].bid)
    assert res is not None
    assert_equivalent(parse(src), cfg.to_program(), regs=["r1", "r2", "r7"])

"""Hyperblock formation and straight-line block merging."""

import pytest

from repro.cfg import build_cfg
from repro.isa import parse
from repro.isa.randprog import random_program
from repro.profilefb import ProfileDB
from repro.transform import form_hyperblocks, merge_straightline_blocks
from tests.transform.conftest import assert_equivalent, observable_state

CHAIN = """
.text
main:
    li  r1, {r1}
    li  r2, 1
    li  r3, 2
    beq r1, r2, a1
    addi r4, r4, 10
    j   m1
a1:
    addi r4, r4, 20
m1:
    beq r1, r3, a2
    addi r5, r5, 10
    j   m2
a2:
    addi r5, r5, 20
m2:
    sw  r4, 0(r29)
    sw  r5, 4(r29)
    halt
"""


@pytest.mark.parametrize("r1", [1, 2, 3])
def test_chain_collapses_to_one_block(r1):
    src = CHAIN.format(r1=r1)
    cfg = build_cfg(src)
    rep = form_hyperblocks(cfg)
    assert rep.conversions == 2
    assert rep.merged >= 1
    # Everything is now one straight-line block.
    assert len([bb for bb in cfg.blocks if bb.instructions]) == 1
    assert_equivalent(parse(src), cfg.to_program(),
                      regs=["r1", "r2", "r3", "r4", "r5"])


def test_profile_gating_spares_predictable_branches():
    # A branch taken every iteration: the 2-bit predictor nails it, so the
    # gated hyperblock former must leave it alone.
    src = """
.text
main:
    li r1, 0
    li r2, 100
loop:
    beq r1, r2, done      # not taken for 100 iterations: predictable
    addi r3, r3, 1
done:
    addi r1, r1, 1
    bne r1, r2, loop
    halt
"""
    prog = parse(src)
    db = ProfileDB.from_run(prog)
    cfg = build_cfg(prog)
    db.annotate(cfg)
    rep = form_hyperblocks(cfg, profile=db)
    assert rep.conversions == 0


def test_merge_straightline_blocks():
    src = """
.text
a:
    li r1, 1
    j  b
b:
    li r2, 2
c:
    li r3, 3
    halt
"""
    cfg = build_cfg(src)
    # 'c:' is not a branch target, so b and c share a block: one seam.
    n = merge_straightline_blocks(cfg)
    assert n == 1
    assert len(cfg.blocks) == 1
    assert_equivalent(parse(src), cfg.to_program(), regs=["r1", "r2", "r3"])


def test_merge_keeps_branch_targets():
    src = """
.text
    beq r1, r2, t
    li r3, 1
t:
    li r4, 2
    halt
"""
    cfg = build_cfg(src)
    # 't' has two preds: not mergeable into its fall-through predecessor.
    n = merge_straightline_blocks(cfg)
    cfg.to_program().validate()


@pytest.mark.parametrize("seed", range(10))
def test_hyperblocks_preserve_random_programs(seed):
    prog = random_program(seed)
    cfg = build_cfg(prog)
    form_hyperblocks(cfg)
    assert observable_state(cfg.to_program()) == observable_state(prog)


@pytest.mark.parametrize("seed", range(6))
def test_gated_hyperblocks_preserve_random_programs(seed):
    prog = random_program(seed)
    db = ProfileDB.from_run(prog)
    cfg = build_cfg(prog)
    db.annotate(cfg)
    form_hyperblocks(cfg, profile=db)
    assert observable_state(cfg.to_program()) == observable_state(prog)

"""DCE, forward substitution, branch-likely conversion."""

import pytest

from repro.cfg import build_cfg
from repro.isa import parse
from repro.profilefb import ProfileDB
from repro.transform import (
    apply_branch_likely, eliminate_dead_code, forward_substitute_block,
    negate_branch,
)
from tests.transform.conftest import assert_equivalent


# ---- DCE ------------------------------------------------------------------------

def test_dce_removes_unused():
    src = ".text\nli r1, 1\nli r2, 2\nsw r1, 0(r29)\nhalt\n"
    cfg = build_cfg(src)
    n = eliminate_dead_code(cfg)
    assert n == 1  # li r2 dead
    assert_equivalent(parse(src), cfg.to_program(), regs=["r1"])


def test_dce_respects_liveness_across_blocks():
    src = """
.text
    li r1, 1
    beq r1, r0, L
    j end
L:
    add r2, r1, r1
end:
    sw r1, 0(r29)
    halt
"""
    cfg = build_cfg(src)
    eliminate_dead_code(cfg)
    # li r1 must survive (used by branch and store); add r2 is dead.
    ops = [i.op for i in cfg.to_program()]
    assert "li" in ops
    assert "add" not in ops


def test_dce_keeps_stores_and_branches():
    src = ".text\nL:\nsw r1, 0(r29)\nbne r1, r2, L2\nL2:\nhalt\n"
    cfg = build_cfg(src)
    eliminate_dead_code(cfg)
    ops = [i.op for i in cfg.to_program()]
    assert "sw" in ops and "bne" in ops


def test_dce_chain():
    # A dead chain: both instructions removable once the tail is dead.
    src = ".text\nli r1, 1\nadd r2, r1, r1\nhalt\n"
    cfg = build_cfg(src)
    n = eliminate_dead_code(cfg)
    assert n == 2


def test_dce_live_at_exit_seed():
    src = ".text\nli r1, 1\nhalt\n"
    cfg = build_cfg(src)
    assert eliminate_dead_code(cfg, live_at_exit={"r1"}) == 0


def test_dce_removes_nops():
    src = ".text\nnop\nli r1, 1\nsw r1, 0(r29)\nnop\nhalt\n"
    cfg = build_cfg(src)
    eliminate_dead_code(cfg)
    assert "nop" not in [i.op for i in cfg.to_program()]


def test_dce_keeps_guarded_writes():
    # A guarded write is partial: conservatively kept.
    src = ".text\ncmpeq cc0, r1, r1\n(cc0) li r2, 5\nsw r2, 0(r29)\nhalt\n"
    cfg = build_cfg(src)
    eliminate_dead_code(cfg)
    assert any(i.is_guarded for i in cfg.to_program())


def test_forward_subst_block():
    cfg = build_cfg(".text\nsubi r9, r3, 1\nmov r6, r9\nadd r8, r6, r4\nhalt\n")
    bb = cfg.entry
    n = forward_substitute_block(bb)
    assert n == 1
    assert bb.instructions[2].srcs == ("r9", "r4")


# ---- branch-likely ------------------------------------------------------------------

LOOP = """
.text
    li r1, 0
    li r2, 50
L:
    addi r1, r1, 1
    bne r1, r2, L
    halt
"""


def test_apply_branch_likely_on_hot_loop():
    prog = parse(LOOP)
    db = ProfileDB.from_run(prog)
    cfg = build_cfg(prog)
    rep = apply_branch_likely(cfg, db)
    assert rep.converted == 1
    assert "bnel" in [i.op for i in cfg.to_program()]
    assert_equivalent(parse(LOOP), cfg.to_program(), regs=["r1", "r2"])


def test_apply_branch_likely_negates_nottaken():
    src = """
.text
    li r1, 0
    li r2, 50
    li r5, 1000
L:
    addi r1, r1, 1
    beq r1, r5, far     # almost never taken
    addi r3, r3, 1
far:
    bne r1, r2, L
    halt
"""
    prog = parse(src)
    db = ProfileDB.from_run(prog)
    cfg = build_cfg(prog)
    rep = apply_branch_likely(cfg, db)
    assert rep.negated == 1
    ops = [i.op for i in cfg.to_program()]
    assert "bnel" in ops  # negated beq -> bne -> bnel (plus loop bnel)
    assert_equivalent(parse(src), cfg.to_program(),
                      regs=["r1", "r2", "r3", "r5"])


def test_negate_branch_swaps_edges():
    src = ".text\nbeq r1, r2, A\nli r3, 1\nA:\nhalt\n"
    cfg = build_cfg(src)
    head = cfg.entry.bid
    t_before = cfg.taken_edge(head).dst
    f_before = cfg.fall_edge(head).dst
    assert negate_branch(cfg, head)
    assert cfg.taken_edge(head).dst == f_before
    assert cfg.fall_edge(head).dst == t_before
    assert cfg.entry.terminator.op == "bne"
    # Semantics: both branch outcomes.
    for r1 in (0, 1):
        src_v = f".text\nli r1, {r1}\nli r2, 0\nbeq r1, r2, A\nli r3, 1\nA:\nhalt\n"
        cfg2 = build_cfg(src_v)
        negate_branch(cfg2, cfg2.entry.bid)
        assert_equivalent(parse(src_v), cfg2.to_program(),
                          regs=["r1", "r2", "r3"])


def test_likely_not_applied_to_irregular():
    src = """
.text
    li r1, 0
    li r2, 40
L:
    andi r3, r1, 1
    beqz r3, even
    addi r4, r4, 1
even:
    addi r1, r1, 1
    bne r1, r2, L
    halt
"""
    prog = parse(src)
    db = ProfileDB.from_run(prog)
    cfg = build_cfg(prog)
    rep = apply_branch_likely(cfg, db)
    # Only the back branch converts; the alternating beqz must not.
    ops = [i.op for i in cfg.to_program()]
    assert "beqz" in ops
    assert "beqzl" not in ops

"""Region scheduler policy tests."""

import pytest

from repro.cfg import build_cfg
from repro.profilefb import ProfileDB
from repro.sched import schedule_region
from repro.sim import final_state
from tests.conftest import biased_loop_program

# A diamond inside a hot loop whose branch is biased AND poorly predicted
# (period-3 pattern: TTF TTF ... defeats the 2-bit counter often enough).
HOT_DIAMOND = """
.text
main:
    li   r1, 0
    li   r2, 300
loop:
    li   r6, 3
    rem  r5, r1, r6
    bnez r5, hot          # taken 2/3, pattern TTF: mispredicted often
    addi r11, r11, 1
    addi r12, r12, 2
    j    latch
hot:
    mul  r13, r1, r1      # fresh temporary: dead on the other path
    add  r10, r10, r13
latch:
    addi r1, r1, 1
    bne  r1, r2, loop
    sw   r10, 0(r29)
    sw   r11, 4(r29)
    halt
"""


def annotated(src_or_prog):
    from repro.isa import parse

    prog = parse(src_or_prog) if isinstance(src_or_prog, str) else src_or_prog
    db = ProfileDB.from_run(prog)
    cfg = build_cfg(prog)
    db.annotate(cfg)
    return cfg, db, prog


def run_regs(prog, regs=("r10", "r11", "r12", "r13")):
    s = final_state(prog)
    return {r: s.regs[r] for r in regs}


def test_region_schedule_preserves_semantics():
    cfg, db, prog = annotated(HOT_DIAMOND)
    schedule_region(cfg, profile=db)
    assert run_regs(cfg.to_program()) == run_regs(prog)


def test_speculates_from_unpredictable_biased_branch():
    cfg, db, prog = annotated(HOT_DIAMOND)
    rep = schedule_region(cfg, profile=db)
    # TTF pattern: 2-bit accuracy ~2/3, p_hot = 2/3 -> profitable gate
    # passes (1/3 * 3.0 > 1/3).
    assert rep.speculated >= 1


def test_no_speculation_from_predictable_branch():
    # ~Always-taken branch: 2-bit predicts it, nothing to hide.
    prog = biased_loop_program(iterations=300, period=64)
    cfg, db, _ = annotated(prog)
    rep = schedule_region(cfg, profile=db)
    assert rep.speculated == 0


def test_report_fields():
    cfg, db, _ = annotated(HOT_DIAMOND)
    rep = schedule_region(cfg, profile=db)
    assert rep.blocks_touched >= (1 if rep.speculated else 0)
    for bid, (moved, dup) in rep.per_block.items():
        assert moved >= 0 and dup >= 0


def test_blocks_locally_scheduled_after():
    cfg, db, _ = annotated(HOT_DIAMOND)
    schedule_region(cfg, profile=db)
    for bb in cfg.blocks:
        if bb.instructions:
            term = bb.terminator
            for k, ins in enumerate(bb.instructions):
                if ins.is_control and not ins.info.is_call:
                    assert k == len(bb.instructions) - 1


def test_without_profile_uses_static_estimate():
    cfg, _, prog = annotated(HOT_DIAMOND)
    rep = schedule_region(cfg, profile=None)
    assert run_regs(cfg.to_program()) == run_regs(prog)

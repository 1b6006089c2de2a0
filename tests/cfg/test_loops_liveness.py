"""Loop detection and liveness."""

import pytest

from repro.cfg import LoopForest, build_cfg, liveness

LOOP = """
.text
entry:
    li   r1, 0
    li   r2, 10
outer:
    li   r3, 0
inner:
    addi r3, r3, 1
    bne  r3, r2, inner
    addi r1, r1, 1
    bne  r1, r2, outer
exit:
    halt
"""


def _by_label(cfg):
    return {bb.label: bb for bb in cfg.blocks if bb.label}


def test_two_nested_loops():
    cfg = build_cfg(LOOP)
    forest = LoopForest(cfg)
    assert len(forest.loops) == 2
    inner, outer = forest.loops  # sorted smallest first
    assert len(inner.body) < len(outer.body)
    assert inner.parent is outer
    assert outer.children == [inner]
    assert inner.depth == 2
    assert outer.depth == 1


def test_loop_headers_and_exits():
    cfg = build_cfg(LOOP)
    labels = _by_label(cfg)
    forest = LoopForest(cfg)
    inner, outer = forest.loops
    assert inner.header == labels["inner"].bid
    assert outer.header == labels["outer"].bid
    assert len(inner.exits) == 1
    assert len(outer.exits) == 1


def test_loop_branch_classification():
    cfg = build_cfg(LOOP)
    forest = LoopForest(cfg)
    inner, outer = forest.loops
    br_inner = forest.branches(inner)
    assert len(br_inner) == 1
    assert br_inner[0].direction == "backward"
    br_outer = forest.branches(outer)
    directions = {b.direction for b in br_outer}
    assert "backward" in directions


def test_forward_branch_classified():
    src = """
.text
top:
    beq r1, r2, skip
    add r3, r3, r4
skip:
    addi r5, r5, 1
    bne r5, r6, top
    halt
"""
    cfg = build_cfg(src)
    forest = LoopForest(cfg)
    assert len(forest.loops) == 1
    brs = forest.branches(forest.loops[0])
    dirs = {b.instr.op: b.direction for b in brs}
    assert dirs["beq"] == "forward"
    assert dirs["bne"] == "backward"
    exit_flags = {b.instr.op: b.is_exit for b in brs}
    assert exit_flags["beq"] is False
    assert exit_flags["bne"] is False  # taken edge stays in loop


def test_loop_of_block():
    cfg = build_cfg(LOOP)
    labels = _by_label(cfg)
    forest = LoopForest(cfg)
    assert forest.loop_of_block(labels["inner"].bid).depth == 2
    assert forest.loop_of_block(labels["outer"].bid).depth == 1
    assert forest.loop_of_block(labels["exit"].bid) is None


# ---- liveness ----------------------------------------------------------------

LIVE = """
.text
entry:
    li  r1, 1
    beq r2, r3, other
then:
    add r4, r1, r2
    j   join
other:
    add r4, r5, r6
join:
    add r7, r4, r1
    halt
"""


def test_liveness_basic():
    cfg = build_cfg(LIVE)
    labels = {bb.label: bb for bb in cfg.blocks if bb.label}
    info = liveness(cfg)
    # r1 is live into both arms (used at join and in then).
    assert "r1" in info.live_in[labels["then"].bid]
    assert "r1" in info.live_in[labels["other"].bid]
    # r4 live out of both arms.
    assert "r4" in info.live_out[labels["then"].bid]
    assert "r4" in info.live_out[labels["other"].bid]
    # r5 live only into 'other'.
    assert "r5" in info.live_in[labels["other"].bid]
    assert "r5" not in info.live_in[labels["then"].bid]
    # Nothing live out of the join/halt block.
    assert info.live_out[labels["join"].bid] == set()


def test_liveness_kill():
    cfg = build_cfg(LIVE)
    labels = {bb.label: bb for bb in cfg.blocks if bb.label}
    info = liveness(cfg)
    # r4 defined in 'then' before any use: not live-in there.
    assert "r4" not in info.live_in[labels["then"].bid]


def test_live_at_exit_seed():
    cfg = build_cfg(LIVE)
    labels = {bb.label: bb for bb in cfg.blocks if bb.label}
    info = liveness(cfg, live_at_exit={"r7"})
    assert "r7" in info.live_out[labels["join"].bid]


def test_guarded_def_does_not_kill():
    src = """
.text
    li r1, 1
    (cc0) li r1, 2
    add r2, r1, r1
    halt
"""
    cfg = build_cfg(src)
    bb = cfg.entry
    assert "r1" not in bb.kills() or "r1" in bb.uses_before_def() or True
    # The guarded write must not kill r1: upward liveness flows through.
    kills = bb.kills()
    assert "r1" in kills  # killed by the *unguarded* li at index 0
    src2 = """
.text
    (cc0) li r1, 2
    add r2, r1, r1
    halt
"""
    bb2 = build_cfg(src2).entry
    assert "r1" not in bb2.kills()
    assert "r1" in bb2.uses_before_def()

"""CFG construction, linearization, dominators."""

import pytest

from repro.cfg import CFG, Dominators, build_cfg
from repro.isa import parse

# The diamond-in-a-loop shape of the paper's Figure 2:
#   B1 -> B2 (fall, 50%) / B3 (taken, 50%); B2,B3 -> B4; B4 -> B1 or exit.
DIAMOND_LOOP = """
.text
entry:
    li   r1, 0
    li   r2, 100
B1:
    and  r5, r5, r5
    beq  r3, r4, B3
B2:
    add  r6, r6, r7
    j    B4
B3:
    sub  r6, r6, r7
B4:
    addi r1, r1, 1
    bne  r1, r2, B1
exit:
    halt
"""


@pytest.fixture
def cfg():
    return build_cfg(DIAMOND_LOOP)


def _by_label(cfg):
    return {bb.label: bb for bb in cfg.blocks if bb.label}


def test_block_partition(cfg):
    labels = _by_label(cfg)
    assert set(labels) >= {"entry", "B1", "B2", "B3", "B4", "exit"}
    assert len(labels["B1"]) == 2
    assert len(labels["B2"]) == 2  # add + j
    assert len(labels["B3"]) == 1


def test_edges(cfg):
    labels = _by_label(cfg)
    b1 = labels["B1"]
    succs = {cfg.block(s).label for s in cfg.succs(b1.bid)}
    assert succs == {"B2", "B3"}
    assert cfg.taken_edge(b1.bid).dst == labels["B3"].bid
    assert cfg.fall_edge(b1.bid).dst == labels["B2"].bid
    b4 = labels["B4"]
    succs4 = {cfg.block(s).label for s in cfg.succs(b4.bid)}
    assert succs4 == {"B1", "exit"}
    assert cfg.succs(labels["exit"].bid) == []


def test_preds(cfg):
    labels = _by_label(cfg)
    preds_b4 = {cfg.block(p).label for p in cfg.preds(labels["B4"].bid)}
    assert preds_b4 == {"B2", "B3"}


def test_check_passes(cfg):
    cfg.check()


def test_reverse_postorder_starts_at_entry(cfg):
    rpo = cfg.reverse_postorder()
    assert rpo[0] == cfg.entry.bid
    assert set(rpo) == {bb.bid for bb in cfg.blocks}


def test_dominators(cfg):
    labels = _by_label(cfg)
    doms = Dominators(cfg)
    b1, b2, b3, b4 = (labels[x].bid for x in ("B1", "B2", "B3", "B4"))
    assert doms.dominates(b1, b2)
    assert doms.dominates(b1, b3)
    assert doms.dominates(b1, b4)
    assert not doms.dominates(b2, b4)
    assert not doms.dominates(b3, b4)
    assert doms.idom[b4] == b1
    assert doms.idom[cfg.entry.bid] is None


def test_roundtrip_to_program(cfg):
    prog = cfg.to_program()
    prog.validate()
    cfg2 = CFG.from_program(prog)
    # Same block structure (count and edge multiset by label).
    assert len(cfg2) == len(cfg)

    def shape(c):
        lbl = {bb.bid: bb.label or f"@{i}" for i, bb in enumerate(c.blocks)}
        return sorted((lbl[e.src], lbl[e.dst], e.kind)
                      for b in c.blocks for e in c.succ_edges[b.bid])

    assert shape(cfg2) == shape(cfg)


def test_roundtrip_preserves_execution():
    """Linearized program must behave identically (smoke: same instr list
    modulo jump insertion)."""
    cfg = build_cfg(DIAMOND_LOOP)
    prog = cfg.to_program()
    ops = [i.op for i in prog]
    assert ops.count("halt") == 1
    assert ops.count("beq") == 1
    assert ops.count("bne") == 1


def test_new_block_layout_placement(cfg):
    b1 = _by_label(cfg)["B1"]
    nb = cfg.new_block(label="NEW", after=b1.bid)
    idx = cfg.layout_index(b1.bid)
    assert cfg.blocks[idx + 1] is nb


def test_fallthrough_jump_materialized():
    # A CFG whose fall-through successor is moved needs an explicit jump.
    cfg = build_cfg(DIAMOND_LOOP)
    labels = _by_label(cfg)
    # Move B2 to the end of layout.
    b2 = labels["B2"]
    cfg.blocks.remove(b2)
    cfg.blocks.append(b2)
    prog = cfg.to_program()
    prog.validate()  # would fail if fall-through was broken


def test_call_falls_through():
    src = """
.text
main:
    jal f
    halt
f:
    jr r31
"""
    cfg = build_cfg(src)
    # jal block must have a fall-through successor (the halt block).
    entry = cfg.entry
    assert entry.instructions[-1].op == "jal"
    succs = cfg.succs(entry.bid)
    assert len(succs) == 1
    assert cfg.block(succs[0]).instructions[0].op == "halt"


def test_unreachable_block_tolerated():
    src = """
.text
    j end
dead:
    add r1, r1, r1
end:
    halt
"""
    cfg = build_cfg(src)
    assert len(cfg.reachable()) == 2
    Dominators(cfg)  # must not crash
    cfg.to_program().validate()

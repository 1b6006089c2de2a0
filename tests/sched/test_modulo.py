"""Modulo scheduling (software pipelining) tests."""

import pytest

from repro.cfg import LoopForest, build_cfg
from repro.isa import parse
from repro.sched import (
    NotPipelinable, cross_iteration_edges, loop_pipeline_report,
    modulo_schedule, rec_mii, res_mii,
)
from repro.sched.machine_model import DEFAULT_MODEL
from repro.transform import form_hyperblocks


def body(src):
    """Parse a straight-line loop body (no terminator)."""
    return list(parse(".text\n" + src + "\nhalt\n"))[:-1]


# ---- bounds -----------------------------------------------------------------

def test_res_mii_alu_bound():
    # 5 ALU ops on 2 ALUs -> ceil(5/2) = 3.
    seq = body("\n".join(f"add r{i}, r10, r11" for i in range(1, 6)))
    assert res_mii(seq) == 3


def test_res_mii_mem_bound():
    # 3 loads on 1 mem unit -> 3.
    seq = body("lw r1, 0(r9)\nlw r2, 4(r9)\nlw r3, 8(r9)")
    assert res_mii(seq) == 3


def test_res_mii_width_bound():
    # 9 ops mixing units, width 4 -> at least ceil(9/4) = 3.
    seq = body("\n".join(f"add r{1 + i % 6}, r10, r11" for i in range(5))
               + "\nsll r7, r10, 1\nlw r8, 0(r9)\nsw r8, 4(r9)\nsll r9, r9, 0")
    assert res_mii(seq) >= 3


def test_rec_mii_accumulator():
    # r1 = r1 + r2: a 1-cycle recurrence at distance 1 -> RecMII 1.
    seq = body("add r1, r1, r2")
    cross = cross_iteration_edges(seq)
    assert rec_mii(seq, cross) == 1


def test_rec_mii_long_chain():
    # Three dependent adds all feeding r1 across iterations: the cycle
    # contains 3 unit-latency ops -> RecMII 3.
    seq = body("add r1, r1, r2\nadd r1, r1, r3\nadd r1, r1, r4")
    cross = cross_iteration_edges(seq)
    assert rec_mii(seq, cross) == 3


def test_cross_edges_store_load():
    seq = body("lw r1, 0(r9)\nsw r1, 4(r9)")
    cross = cross_iteration_edges(seq)
    assert any(c.src == 1 and c.dst == 0 for c in cross)  # store -> load


# ---- full schedule --------------------------------------------------------------

def test_independent_ops_reach_res_mii():
    seq = body("\n".join(f"add r{i}, r10, r11" for i in range(1, 7)))
    s = modulo_schedule(seq)
    assert s.ii == s.res_mii == 3
    # Kernel slots (start cycle mod II) respect the issue width.
    slots = [0] * s.ii
    for t in s.start.values():
        slots[t % s.ii] += 1
    assert max(slots) <= 4


def test_schedule_respects_intra_deps():
    seq = body("lw r1, 0(r9)\nadd r2, r1, r1\nsw r2, 4(r9)")
    s = modulo_schedule(seq)
    assert s.start[1] >= s.start[0] + 2   # load latency
    assert s.start[2] >= s.start[1] + 1


def test_schedule_respects_recurrence():
    seq = body("add r1, r1, r2\nmul r3, r1, r1\nadd r4, r3, r3")
    s = modulo_schedule(seq)
    assert s.ii >= s.rec_mii


def test_pipelining_overlaps_iterations():
    """The point of software pipelining: II < single-iteration length."""
    seq = body("lw r1, 0(r9)\nadd r2, r1, r1\nmul r3, r2, r2\nadd r4, r3, r3")
    from repro.sched import schedule_length

    s = modulo_schedule(seq)
    assert s.ii < schedule_length(seq)
    assert s.stages >= 2  # iterations genuinely overlap


def test_branchy_body_not_pipelinable():
    seq = body("beq r1, r2, X\nX:\nadd r3, r4, r5")
    with pytest.raises(NotPipelinable):
        modulo_schedule(seq)


def test_empty_body():
    s = modulo_schedule([])
    assert s.ii == 1
    assert s.stages == 0


# ---- the paper's claim: if-conversion enables pipelining --------------------------

BRANCHY_LOOP = """
.text
main:
    li   r1, 0
    li   r2, 64
    li   r9, 0x1000
loop:
    lw   r3, 0(r9)
    bltz r3, negate
    add  r4, r4, r3
    j    next
negate:
    sub  r4, r4, r3
next:
    addi r9, r9, 4
    addi r1, r1, 1
    bne  r1, r2, loop
    halt
"""


def test_ifconvert_enables_pipelining():
    cfg = build_cfg(BRANCHY_LOOP)
    forest = LoopForest(cfg)
    loop = forest.loops[0]
    # Before: multi-block body -> not pipelinable.
    with pytest.raises(NotPipelinable):
        loop_pipeline_report(cfg, loop)
    # If-convert the diamond inside the loop (hyperblock formation).
    rep = form_hyperblocks(cfg)
    assert rep.conversions >= 1
    forest2 = LoopForest(cfg)
    loop2 = forest2.loops[0]
    sched = loop_pipeline_report(cfg, loop2)
    assert sched.ii >= 1
    # The pipelined II beats the loop body's acyclic schedule length.
    from repro.sched import schedule_length

    bb = cfg.block(loop2.header)
    assert sched.ii < schedule_length(bb.instructions[:-1])

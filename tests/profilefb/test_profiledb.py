"""ProfileDB: end-to-end profiling of real programs."""

from repro.cfg import build_cfg
from repro.isa import parse
from repro.profilefb import BranchClass, ProfileDB

# Loop of 100 iterations whose inner branch follows the paper's pattern:
# taken for i<40, alternating for 40<=i<60, not-taken for i>=60.
PAPER_LOOP = """
.text
main:
    li   r1, 0          # i
    li   r2, 100        # N
loop:
    slti r3, r1, 40
    bnez r3, take       # i < 40 -> taken region
    li   r4, 60
    slt  r5, r1, r4
    beqz r5, skip       # i >= 60 -> not-taken region
    andi r6, r1, 1
    bnez r6, take       # 40<=i<60: alternate on parity
    j    skip
take:
    addi r7, r7, 1
skip:
    addi r1, r1, 1
    bne  r1, r2, loop
    halt
"""

SIMPLE_LOOP = """
.text
    li r1, 0
    li r2, 50
L:
    addi r1, r1, 1
    bne r1, r2, L
    halt
"""


def test_profile_simple_loop():
    prog = parse(SIMPLE_LOOP)
    db = ProfileDB.from_run(prog)
    assert len(db.branches) == 1
    (bp,) = db.branches.values()
    assert bp.executions == 50
    assert bp.taken == 49
    assert bp.classification.branch_class == BranchClass.HIGHLY_TAKEN


def test_block_and_edge_freqs():
    prog = parse(SIMPLE_LOOP)
    db = ProfileDB.from_run(prog)
    cfg = build_cfg(prog)
    bf = db.block_freqs(cfg)
    labels = {bb.label: bb.bid for bb in cfg.blocks if bb.label}
    assert bf[labels["L"]] == 50
    ef = db.edge_freqs(cfg)
    loop_edge = (labels["L"], labels["L"])
    assert ef[loop_edge] == 49


def test_annotate_cfg():
    prog = parse(SIMPLE_LOOP)
    db = ProfileDB.from_run(prog)
    cfg = build_cfg(prog)
    db.annotate(cfg)
    labels = {bb.label: bb for bb in cfg.blocks if bb.label}
    assert labels["L"].freq == 50
    back = cfg.taken_edge(labels["L"].bid)
    assert back.dst == labels["L"].bid and back.freq == 49


def test_paper_loop_branch_classes():
    prog = parse(PAPER_LOOP)
    db = ProfileDB.from_run(prog)
    # Find the parity branch: executes 20 times, alternating.
    by_op_pc = sorted(db.branches.values(), key=lambda b: b.pc)
    parity = [b for b in by_op_pc if b.executions == 20]
    assert len(parity) == 1
    assert parity[0].history.toggle_factor > 0.9
    # The i<40 test branch executes 100 times: T*40 then F*60 -> phased.
    region = [b for b in by_op_pc if b.executions == 100
              and b.instr.op == "bnez"]
    assert len(region) == 1
    assert region[0].classification.branch_class == BranchClass.SPLITTABLE
    segs = region[0].classification.pattern.segments
    assert [s.kind for s in segs] == ["taken", "nottaken"]


def test_loop_back_branch_highly_taken():
    prog = parse(PAPER_LOOP)
    db = ProfileDB.from_run(prog)
    back = [b for b in db.branches.values() if b.instr.op == "bne"]
    assert len(back) == 1
    assert back[0].classification.branch_class == BranchClass.HIGHLY_TAKEN


def test_summary_renders():
    db = ProfileDB.from_run(parse(SIMPLE_LOOP))
    text = db.summary()
    assert "dynamic instructions" in text
    assert "freq=" in text


def test_branch_at_and_of():
    prog = parse(SIMPLE_LOOP)
    db = ProfileDB.from_run(prog)
    (bp,) = db.branches.values()
    assert db.branch_of(bp.instr) is bp

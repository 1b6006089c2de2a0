"""ProfileDB save/load: the paper's multi-run feedback-file workflow."""

import json

import pytest

from repro.core import compile_proposed
from repro.isa import parse
from repro.profilefb import ProfileDB, boundaries_stable
from repro.workloads import compress_program, phased_loop_program

LOOP = """
.text
    li r1, 0
    li r2, 50
L:
    addi r1, r1, 1
    bne r1, r2, L
    halt
"""


def test_roundtrip_identical_classification():
    prog = parse(LOOP)
    db = ProfileDB.from_run(prog)
    db2 = ProfileDB.from_json(db.to_json(), prog)
    assert set(db2.branches) == set(db.branches)
    for uid, bp in db.branches.items():
        bp2 = db2.branches[uid]
        assert bp2.pc == bp.pc
        assert bp2.history == bp.history
        assert bp2.classification.branch_class == bp.classification.branch_class
    assert db2.index_counts == db.index_counts


def test_roundtrip_on_real_workload():
    prog = compress_program(800)
    db = ProfileDB.from_run(prog)
    db2 = ProfileDB.from_json(db.to_json(), prog)
    assert len(db2.branches) == len(db.branches)


def test_loaded_profile_drives_compilation():
    prog = compress_program(800)
    db = ProfileDB.from_run(prog)
    reloaded = ProfileDB.from_json(db.to_json(), prog)
    a = compile_proposed(prog, profile=db)
    b = compile_proposed(prog, profile=reloaded)
    assert [i.op for i in a.program] == [i.op for i in b.program]


def test_rejects_wrong_program():
    prog = parse(LOOP)
    other = parse(".text\nli r1, 1\nhalt\n")
    db = ProfileDB.from_run(prog)
    with pytest.raises(ValueError):
        ProfileDB.from_json(db.to_json(), other)


def test_rejects_non_branch_pc():
    prog = parse(LOOP)
    db = ProfileDB.from_run(prog)
    data = json.loads(db.to_json())
    data["branches"][0]["pc"] = 0  # li, not a branch
    with pytest.raises(ValueError):
        ProfileDB.from_json(json.dumps(data), prog)


#: A malformed feedback file of each kind, and what its error names.
MALFORMED = {
    "negative-pc": "outside",
    "duplicate-record": "repeats pc",
    "pc-past-the-end": "outside",
    "string-pc": "'pc' is str",
    "missing-steps": "'steps'",
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_rejects_malformed_feedback_file(case):
    prog = parse(LOOP)
    n = len(prog.instructions)
    data = json.loads(ProfileDB.from_run(prog).to_json())
    rec = data["branches"][0]
    if case == "negative-pc":
        rec["pc"] -= n  # indexes the same branch from the end
    elif case == "duplicate-record":
        data["branches"].append(dict(rec))
    elif case == "pc-past-the-end":
        rec["pc"] = n
    elif case == "string-pc":
        rec["pc"] = str(rec["pc"])
    else:
        del data["steps"]
    with pytest.raises(ValueError, match=MALFORMED[case]):
        ProfileDB.from_json(json.dumps(data), prog)


def test_multi_run_boundary_stability():
    """Two runs with slightly different phase lengths agree on boundaries
    (the precondition the paper's splitter needs across inputs)."""
    a = phased_loop_program([(40, "taken"), (60, "nottaken")])
    b = phased_loop_program([(42, "taken"), (58, "nottaken")])
    hists = []
    for prog in (a, b):
        db = ProfileDB.from_run(prog)
        # The phased branch is the only mid-frequency one that executes
        # once per iteration.
        target = next(bp for bp in db.branches.values()
                      if 0.3 < bp.classification.frequency < 0.7
                      and bp.executions == 100)
        hists.append(target.history)
    assert boundaries_stable(hists, tolerance=0.1)

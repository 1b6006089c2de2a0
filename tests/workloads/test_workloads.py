"""Workload kernels: correctness against their Python references, and the
branch-behavior properties the evaluation relies on."""

import pytest

from repro.profilefb import BranchClass, ProfileDB
from repro.sim import final_state
from repro.workloads import (
    benchmark_programs, compress_program, compress_reference,
    espresso_program, espresso_reference, grep_program, grep_reference,
    phased_loop_program, xlisp_program, xlisp_reference,
)
from tests.conftest import biased_loop_program


# ---- bit-exact correctness -------------------------------------------------------

@pytest.mark.parametrize("n,seed", [(500, 12345), (1500, 999), (4000, 12345)])
def test_compress_matches_reference(n, seed):
    s = final_state(compress_program(n, seed))
    checksum, length, max_run = compress_reference(n, seed)
    assert s.regs["r17"] == checksum
    assert s.regs["r11"] == length
    assert s.regs["r16"] == max_run
    assert s.stats.halted


@pytest.mark.parametrize("m,seed", [(40, 99991), (120, 99991), (80, 5)])
def test_espresso_matches_reference(m, seed):
    s = final_state(espresso_program(m, seed))
    checksum, survivors, literals, odd, even = espresso_reference(m, seed)
    assert s.regs["r17"] == checksum
    assert s.regs["r15"] == survivors
    assert s.regs["r16"] == literals
    assert s.regs["r18"] == odd
    assert s.regs["r19"] == even


@pytest.mark.parametrize("k", [10, 100, 600])
def test_xlisp_matches_reference(k):
    from repro.workloads.xlisp import xlisp_opcode_counts

    s = final_state(xlisp_program(k))
    assert s.regs["r17"] == xlisp_reference(k)
    arith, other = xlisp_opcode_counts(k)
    assert s.regs["r18"] == arith
    assert s.regs["r19"] == other


@pytest.mark.parametrize("n,inj,seed", [(1000, 10, 777777), (6000, 40, 777777),
                                        (3000, 25, 31337)])
def test_grep_matches_reference(n, inj, seed):
    s = final_state(grep_program(n, inj, seed))
    matches, checksum, low, high, clo, chi = grep_reference(n, inj, seed)
    assert s.regs["r17"] == matches
    assert s.regs["r16"] == checksum
    assert s.regs["r12"] == low
    assert s.regs["r13"] == high
    assert s.regs["r18"] == clo
    assert s.regs["r19"] == chi
    assert matches > 0  # the workload must actually find something


# ---- dynamic characteristics (Table 1 plausibility) -------------------------------

def test_branch_ratios_in_paper_range():
    """Control-transfer fraction of the dynamic stream should be in the
    ballpark of the paper's 19-23%."""
    for name, prog in benchmark_programs(scale=0.5).items():
        s = final_state(prog)
        ratio = (s.stats.branches + s.stats.jumps) / s.stats.steps
        assert 0.08 <= ratio <= 0.40, f"{name}: {ratio:.3f}"


def test_workloads_have_biased_loop_branches():
    for name, prog in benchmark_programs(scale=0.5).items():
        db = ProfileDB.from_run(prog)
        classes = {bp.classification.branch_class
                   for bp in db.branches.values()}
        assert BranchClass.HIGHLY_TAKEN in classes \
            or BranchClass.HIGHLY_NOTTAKEN in classes, name


def test_compress_and_grep_have_phased_branches():
    for prog in (compress_program(2000), grep_program(3000)):
        db = ProfileDB.from_run(prog)
        phased = [bp for bp in db.branches.values()
                  if bp.classification.pattern.kind == "phased"]
        assert phased, prog.name


def test_xlisp_is_indirect_jump_heavy():
    s = final_state(xlisp_program(100))
    assert s.stats.jumps > s.stats.branches


def test_scaling():
    small = final_state(compress_program(500)).stats.steps
    large = final_state(compress_program(2000)).stats.steps
    assert large > 2 * small


# ---- synthetic kernels --------------------------------------------------------------

def test_phased_loop_program():
    prog = phased_loop_program([(40, "taken"), (20, "alternate"),
                                (40, "nottaken")])
    s = final_state(prog)
    # taken arm executed 40 + 10 times; body increments 1+2 each visit.
    assert s.regs["r10"] == 3 * 50
    assert s.regs["r11"] == 3 * 50
    db = ProfileDB.from_run(prog)
    # The branch under study is the only one at 50% overall frequency
    # (40 taken + 10 alternating-taken of 100).
    target = [bp for bp in db.branches.values()
              if bp.executions == 100
              and abs(bp.classification.frequency - 0.5) < 1e-9]
    assert target
    assert target[0].classification.pattern.kind == "phased"
    kinds = [s.kind for s in target[0].classification.pattern.segments]
    assert kinds[0] == "taken" and kinds[-1] == "nottaken"


def test_phased_loop_rejects_bad_kind():
    with pytest.raises(ValueError):
        phased_loop_program([(10, "sometimes")])


def test_biased_loop_program():
    prog = biased_loop_program(iterations=160, period=8)
    s = final_state(prog)
    db = ProfileDB.from_run(prog)
    target = [bp for bp in db.branches.values() if bp.executions == 160]
    assert target
    freq = target[0].classification.frequency
    assert abs(freq - 7 / 8) < 0.01

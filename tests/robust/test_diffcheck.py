"""Differential checker: equivalence proofs, divergence and the watchdog."""

import pytest

from repro.core import compile_baseline, compile_proposed
from repro.isa import parse
from repro.isa.instruction import make
from repro.isa.randprog import random_program
from repro.robust import check_equivalence, run_reference

STORES = """.text
main:
    li   r1, 10
    li   r2, 3
    li   r10, 0x50000
    sub  r3, r1, r2
    sw   r3, 0(r10)
    sw   r1, 4(r10)
    halt
"""


def _stores():
    return parse(STORES, name="stores")


def test_program_equivalent_to_its_copy():
    prog = _stores()
    report = check_equivalence(prog, prog.copy())
    assert report
    assert report.original_steps == report.transformed_steps


@pytest.mark.parametrize("seed", range(3))
def test_pipelines_preserve_semantics(seed):
    prog = random_program(seed)
    for result in (compile_baseline(prog), compile_proposed(prog)):
        assert check_equivalence(prog, result.program)


def test_detects_memory_divergence():
    prog = _stores()
    bad = prog.copy()
    bad.instructions[3].srcs = (bad.instructions[3].srcs[1],
                                bad.instructions[3].srcs[0])
    report = check_equivalence(prog, bad)
    assert not report
    assert any("mem[" in m for m in report.mismatches)


def test_detects_halt_divergence():
    prog = _stores()
    bad = prog.copy()
    bad.instructions.pop()  # drop halt: falls off the end instead
    bad.labels = {k: min(v, len(bad.instructions))
                  for k, v in bad.labels.items()}
    report = check_equivalence(prog, bad)
    assert not report


def test_watchdog_bounds_infinite_transformed_run():
    prog = _stores()
    looping = prog.copy()
    # Replace halt with a self-jump: the transformed run can never finish.
    looping.labels["spin"] = len(looping.instructions) - 1
    looping.instructions[-1] = make("j", "spin")
    report = check_equivalence(prog, looping, max_steps=200_000)
    assert not report
    assert "transformed" in report.reason
    assert "StepBudgetExceeded" in report.reason


def test_untrusted_original_is_inconclusive():
    prog = _stores()
    looping = prog.copy()
    looping.labels["spin"] = len(looping.instructions) - 1
    looping.instructions[-1] = make("j", "spin")
    report = check_equivalence(looping, prog, max_steps=50_000)
    assert not report
    assert report.reason.startswith("original")


def test_registers_are_opt_in():
    prog = _stores()
    bad = prog.copy()
    # r7 is dead: memory image matches, register state does not.
    bad.instructions.insert(3, make("li", "r7", 123))
    bad.labels = {k: (v if v <= 3 else v + 1) for k, v in bad.labels.items()}
    assert check_equivalence(prog, bad)
    assert not check_equivalence(prog, bad, registers=["r7"])


def _variants(prog):
    """Transformed versions of *prog*, one per kind of report."""
    swapped = prog.copy()
    swapped.instructions[3].srcs = swapped.instructions[3].srcs[::-1]
    escaping = prog.copy()
    escaping.instructions[-1] = make("jr", "r1")   # r1 = 10: past the end
    looping = prog.copy()
    looping.labels["spin"] = len(looping.instructions) - 1
    looping.instructions[-1] = make("j", "spin")
    dangling = prog.copy()
    dangling.instructions[-1] = make("j", ".nowhere")
    dead_write = prog.copy()
    dead_write.instructions.insert(3, make("li", "r7", 123))
    return [prog.copy(), swapped, escaping, looping, dangling, dead_write]


@pytest.mark.parametrize("original", ["clean", "looping", "unloadable"])
def test_reference_checks_equal_one_shot_checks(original):
    """One reference run serves any number of checks, in any order, and
    each report equals the one-shot check of the same pair."""
    prog = _stores()
    variants = _variants(prog)
    orig = {"clean": prog, "looping": variants[3],
            "unloadable": variants[4]}[original]
    reference = run_reference(orig, 2_000)
    kinds = set()
    for transformed in variants + variants[::-1]:
        for kw in ({}, {"registers": ["r7"]}, {"step_ratio": 1.0}):
            report = reference.check(transformed, **kw)
            assert report == check_equivalence(orig, transformed,
                                               max_steps=2_000, **kw)
            kinds.add(report.kind)
    if original == "clean":
        assert kinds == {"equivalent", "load-failure", "timeout", "crash",
                         "mem-mismatch", "reg-mismatch"}
    else:
        assert kinds == {"original-failed"}

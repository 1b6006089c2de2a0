"""End-to-end compilation pipelines: semantics and performance direction."""

import pytest

from repro import compile_baseline, compile_proposed, compile_variant, simulate, r10k_config
from repro.sim import final_state
from repro.workloads import AUX_BASE, benchmark_programs, phased_loop_program
from tests.conftest import biased_loop_program


def aux_words(prog, k=6):
    s = final_state(prog)
    return [s.mem.read_word(AUX_BASE + 4 * i) for i in range(k)]


SMALL = benchmark_programs(scale=0.15)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_baseline_preserves_semantics(name):
    prog = SMALL[name]
    base = compile_baseline(prog)
    assert aux_words(base.program) == aux_words(prog)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_proposed_preserves_semantics(name):
    prog = SMALL[name]
    prop = compile_proposed(prog)
    assert aux_words(prop.program) == aux_words(prog)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_proposed_never_slower_than_baseline_much(name):
    """The decision gates must prevent regressions: allow at most 5%
    cycle increase on any benchmark (transforms are profit-gated)."""
    prog = SMALL[name]
    base = simulate(compile_baseline(prog).program, r10k_config("twobit"))
    prop = simulate(compile_proposed(prog).program, r10k_config("twobit"))
    assert prop.cycles <= base.cycles * 1.05


def test_proposed_improves_espresso():
    prog = benchmark_programs(scale=0.3)["espresso"]
    base = simulate(compile_baseline(prog).program, r10k_config("twobit"))
    prop = simulate(compile_proposed(prog).program, r10k_config("twobit"))
    assert prop.ipc > base.ipc * 1.2


def test_variant_toggles_off_everything_is_baselineish():
    prog = biased_loop_program(iterations=300, period=8)
    cr = compile_variant(prog, likely=False, split=False, ifconvert=False,
                         speculation=False)
    # No transform applied: same instruction count modulo scheduling.
    assert aux_words(cr.program) == aux_words(prog)
    assert cr.splits_applied == 0
    assert cr.ifconverts_applied == 0


def test_variant_likely_only():
    prog = biased_loop_program(iterations=300, period=1000)
    cr = compile_variant(prog, likely=True, split=False, ifconvert=False,
                         speculation=False)
    ops = [i.op for i in cr.program]
    assert any(op.endswith("l") and op != "halt" for op in ops
               if op in ("bnel", "beql", "bnezl", "beqzl", "bctl"))


def test_proposed_on_phased_synthetic():
    prog = phased_loop_program([(80, "taken"), (80, "nottaken")], body_ops=3)
    prop = compile_proposed(prog)
    assert aux_words(prop.program, 2) == aux_words(prog, 2)


def test_compile_result_summary():
    prog = biased_loop_program(iterations=100, period=8)
    cr = compile_proposed(prog)
    text = cr.summary()
    assert "branch-likelies" in text
    assert "splits applied" in text


def test_reuse_profile():
    from repro.profilefb import ProfileDB

    prog = biased_loop_program(iterations=200, period=8)
    db = ProfileDB.from_run(prog)
    cr = compile_proposed(prog, profile=db)
    assert cr.profile is db
    assert aux_words(cr.program) == aux_words(prog)


def test_proposed_program_validates_and_is_renamed():
    prog = SMALL["compress"]
    cr = compile_proposed(prog)
    cr.program.validate()
    assert cr.program.name.endswith(".proposed")

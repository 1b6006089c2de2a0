"""Differential testing: every transformation pipeline must preserve the
observable behavior of randomly generated programs.

The generator (repro.isa.randprog) produces terminating programs with
counted loops, chained diamonds, and data-dependent branches; each test
co-simulates the original against a transformed version and compares the
observable memory state.
"""

import pytest

from repro.cfg import build_cfg
from repro.core import compile_baseline, compile_proposed
from repro.isa.randprog import random_program
from repro.profilefb import ProfileDB
from repro.sched import schedule_region, reorder_block
from repro.transform import eliminate_dead_code, if_convert_diamond
from tests.transform.conftest import observable_state

SEEDS = list(range(24))


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_programs_run(seed):
    prog = random_program(seed)
    state = observable_state(prog)
    assert len(state) == 10


@pytest.mark.parametrize("seed", SEEDS)
def test_cfg_roundtrip_preserves_behavior(seed):
    prog = random_program(seed)
    rebuilt = build_cfg(prog).to_program()
    assert observable_state(rebuilt) == observable_state(prog)


@pytest.mark.parametrize("seed", SEEDS)
def test_local_scheduling_preserves_behavior(seed):
    prog = random_program(seed)
    cfg = build_cfg(prog)
    for bb in cfg.blocks:
        if bb.instructions:
            reorder_block(bb)
    assert observable_state(cfg.to_program()) == observable_state(prog)


@pytest.mark.parametrize("seed", SEEDS)
def test_cleanup_passes_preserve_behavior(seed):
    prog = random_program(seed)
    cfg = build_cfg(prog)
    eliminate_dead_code(cfg)
    assert observable_state(cfg.to_program()) == observable_state(prog)


@pytest.mark.parametrize("seed", SEEDS)
def test_region_scheduling_preserves_behavior(seed):
    prog = random_program(seed)
    db = ProfileDB.from_run(prog)
    cfg = build_cfg(prog)
    db.annotate(cfg)
    schedule_region(cfg, profile=db)
    assert observable_state(cfg.to_program()) == observable_state(prog)


@pytest.mark.parametrize("seed", SEEDS)
def test_ifconvert_everything_convertible_preserves_behavior(seed):
    prog = random_program(seed)
    cfg = build_cfg(prog)
    # Greedily convert until nothing matches (chains collapse bottom-up).
    changed = True
    while changed:
        changed = False
        for bb in list(cfg.blocks):
            if bb.bid in cfg._by_id and if_convert_diamond(cfg, bb.bid):
                changed = True
                break
    assert observable_state(cfg.to_program()) == observable_state(prog)


@pytest.mark.parametrize("seed", SEEDS)
def test_baseline_pipeline_preserves_behavior(seed):
    prog = random_program(seed)
    out = compile_baseline(prog).program
    assert observable_state(out) == observable_state(prog)


@pytest.mark.parametrize("seed", SEEDS)
def test_proposed_pipeline_preserves_behavior(seed):
    prog = random_program(seed)
    out = compile_proposed(prog).program
    assert observable_state(out) == observable_state(prog)


# ---- call-containing programs (jal/jr barriers) ------------------------------

from repro.isa.randprog import RandProgConfig

CALL_SEEDS = list(range(12))


def _call_prog(seed):
    return random_program(seed, RandProgConfig(with_calls=True))


@pytest.mark.parametrize("seed", CALL_SEEDS)
def test_call_programs_run(seed):
    prog = _call_prog(seed)
    assert any(i.op == "jal" for i in prog) or True  # calls are probabilistic
    observable_state(prog)


@pytest.mark.parametrize("seed", CALL_SEEDS)
def test_call_programs_roundtrip(seed):
    prog = _call_prog(seed)
    rebuilt = build_cfg(prog).to_program()
    assert observable_state(rebuilt) == observable_state(prog)


@pytest.mark.parametrize("seed", CALL_SEEDS)
def test_call_programs_baseline_pipeline(seed):
    prog = _call_prog(seed)
    out = compile_baseline(prog).program
    assert observable_state(out) == observable_state(prog)


@pytest.mark.parametrize("seed", CALL_SEEDS)
def test_call_programs_proposed_pipeline(seed):
    prog = _call_prog(seed)
    out = compile_proposed(prog).program
    assert observable_state(out) == observable_state(prog)

"""Static machine model tests."""

import pytest

from repro.isa import make
from repro.sched import DEFAULT_MODEL, MachineModel
from repro.sim import r10k_config


def test_default_matches_paper():
    m = DEFAULT_MODEL
    assert m.issue_width == 4
    assert m.slots == {"alu": 2, "sft": 1, "mem": 1, "br": 1,
                       "fpadd": 1, "fpmul": 1, "fpdiv": 1}


def test_from_config_roundtrip():
    cfg = r10k_config("twobit", num_alus=3, dispatch_width=8)
    m = MachineModel.from_config(cfg)
    assert m.issue_width == 8
    assert m.slots["alu"] == 3
    assert m.latencies is cfg.latencies


@pytest.mark.parametrize("op,expected_unit,expected_lat", [
    (("add", "r1", "r2", "r3"), "alu", 1),
    (("sll", "r1", "r2", 2), "sft", 1),
    (("lw", "r1", 0, "r2"), "mem", 2),
    (("sw", "r1", 0, "r2"), "mem", 2),
    (("beq", "r1", "r2", "L"), "br", 1),
    (("fadd", "f1", "f2", "f3"), "fpadd", 3),
    (("fmul", "f1", "f2", "f3"), "fpmul", 3),
    (("fdiv", "f1", "f2", "f3"), "fpdiv", 3),
])
def test_unit_and_latency(op, expected_unit, expected_lat):
    ins = make(*op)
    assert DEFAULT_MODEL.unit_key(ins) == expected_unit
    assert DEFAULT_MODEL.latency(ins) == expected_lat


def test_slots_for_unknown_class_defaults():
    assert DEFAULT_MODEL.slots_for("mystery") == 1

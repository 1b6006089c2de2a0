"""Shared helpers: semantic-equivalence checking via co-simulation."""

import pytest

from repro.isa import parse
from repro.isa.randprog import MEM_BASE
from repro.sim import FunctionalSim


def run(prog, max_steps=2_000_000):
    sim = FunctionalSim(prog, max_steps=max_steps)
    sim.run()
    return sim


def assert_equivalent(prog_a, prog_b, regs=None, ignore=(), max_steps=2_000_000):
    """Run both programs; assert identical final integer registers (except
    *ignore*; pass ``regs=[]`` to compare memory only) and identical
    memory effects."""
    a = run(prog_a, max_steps)
    b = run(prog_b, max_steps)
    keys = regs if regs is not None else [f"r{i}" for i in range(29)]
    for r in keys:
        if r in ignore:
            continue
        assert a.regs[r] == b.regs[r], \
            f"{r}: {a.regs[r]:#x} != {b.regs[r]:#x}"
    # Compare all memory both programs touched.
    pages = set(a.mem._pages) | set(b.mem._pages)
    for pno in pages:
        pa = a.mem._pages.get(pno, bytearray(4096))
        pb = b.mem._pages.get(pno, bytearray(4096))
        assert pa == pb, f"memory page {pno:#x} differs"
    return a, b


def observable_state(prog, max_steps=2_000_000):
    """Run a generated program (:mod:`repro.isa.randprog`); return the ten
    memory words the generator funnels its results into."""
    sim = run(prog, max_steps)
    base = MEM_BASE + 0x1000
    return tuple(sim.mem.read_word(base + 4 * i) for i in range(10))


@pytest.fixture
def equivalent():
    return assert_equivalent

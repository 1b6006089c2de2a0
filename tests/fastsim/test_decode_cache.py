"""The decode cache holds programs weakly: a program the caller drops is
collected and its decoded tables leave the cache with it."""

import gc
import weakref

from repro.fastsim import backend as fb
from repro.fastsim.decode import _DECODE_CACHE
from repro.fastsim.functional import FastFunctionalSim
from repro.sim.config import r10k_config
from repro.sim.functional import FunctionalSim
from repro.sim.pipeline import TimingSim
from repro.workloads import benchmark_programs


def test_dropped_programs_leave_the_decode_cache(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("reference simulator used")

    # Every run takes the fast path, so every program is decoded.
    monkeypatch.setattr(TimingSim, "run", broken)
    monkeypatch.setattr(FunctionalSim, "__init__", broken)
    gc.collect()
    before = set(_DECODE_CACHE)
    refs = []
    for seed in range(5):
        for prog in benchmark_programs(0.01, seed=seed).values():
            fb.simulate(prog, r10k_config("twobit"), max_steps=5_000_000)
            FastFunctionalSim(prog, max_steps=5_000_000).run()
            refs.append(weakref.ref(prog))
        assert len(_DECODE_CACHE) > len(before)
    del prog
    gc.collect()
    assert [r for r in refs if r() is not None] == []
    assert set(_DECODE_CACHE) <= before

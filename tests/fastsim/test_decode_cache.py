"""The decode cache holds programs weakly: a program the caller drops is
collected and its decoded tables leave the cache with it."""

import gc
import weakref

from repro.fastsim import backend as fb
from repro.fastsim.decode import _DECODE_CACHE
from repro.sim.config import r10k_config
from repro.workloads import benchmark_programs


def test_dropped_programs_leave_the_decode_cache():
    gc.collect()
    before = set(_DECODE_CACHE)
    trail = fb.fallback_trail()
    refs = []
    for seed in range(5):
        for prog in benchmark_programs(0.01, seed=seed).values():
            fb.simulate(prog, r10k_config("twobit"), max_steps=5_000_000)
            fb.functional_sim(prog, max_steps=5_000_000).run()
            refs.append(weakref.ref(prog))
        assert len(_DECODE_CACHE) > len(before)
    del prog
    gc.collect()
    assert [r for r in refs if r() is not None] == []
    assert set(_DECODE_CACHE) <= before
    assert fb.fallback_trail() == trail  # every run took the fast path

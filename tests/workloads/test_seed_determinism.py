"""Workload determinism: identical invocations must hash identically.

Cache keys are content digests of the program text, so any unseeded RNG
in the workload generators would silently defeat the artifact cache.
These are the regression tests for the seed audit: every benchmark
factory is deterministic by default, `benchmark_programs(seed=N)` is a
pure function of (scale, N), and distinct seeds produce distinct inputs
for the stochastic benchmarks.
"""

from repro.engine import program_digest
from repro.isa.randprog import random_program
from repro.workloads import benchmark_programs
from repro.workloads.synth import phased_loop_program
from tests.conftest import biased_loop_program


def _digests(scale=0.01, seed=None):
    return {name: program_digest(prog)
            for name, prog in benchmark_programs(scale, seed=seed).items()}


def test_default_invocations_are_bit_identical():
    assert _digests() == _digests()


def test_seeded_invocations_are_bit_identical():
    assert _digests(seed=1234) == _digests(seed=1234)


def test_distinct_seeds_vary_stochastic_benchmarks():
    a, b = _digests(seed=1), _digests(seed=2)
    for name in ("compress", "espresso", "grep"):
        assert a[name] != b[name], f"{name} ignored the seed"


def test_xlisp_is_seed_independent():
    # xlisp's workload is structurally deterministic; the seed must not
    # perturb it (and the cache may share its cells across seeds).
    assert _digests(seed=1)["xlisp"] == _digests(seed=2)["xlisp"]


def test_seeded_differs_from_default():
    a, b = _digests(), _digests(seed=1)
    for name in ("compress", "espresso", "grep"):
        assert a[name] != b[name]


def test_randprog_fully_seeded():
    p1 = random_program(seed=7)
    p2 = random_program(seed=7)
    assert program_digest(p1) == program_digest(p2)
    assert program_digest(p1) != program_digest(random_program(seed=8))


def test_synth_programs_deterministic():
    phases = ((40, "taken"), (40, "alternate"))
    assert program_digest(biased_loop_program()) == \
        program_digest(biased_loop_program())
    assert program_digest(phased_loop_program(phases)) == \
        program_digest(phased_loop_program(phases))

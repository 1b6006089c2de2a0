"""Hot-PC sampler: result parity, sampling, heat report, the reference
trace as its oracle."""

import json

import pytest

from repro.fastsim.backend import simulate
from repro.fastsim.functional import FLUSH, FastFunctionalSim
from repro.isa import parse
from repro.obs.pipeline_obs import PipelineObserver, heat_report
from repro.sim import r10k_config
from repro.sim.functional import FunctionalSim
from repro.workloads import benchmark_programs


LOOP_SRC = """.text
li r9, 0
li r10, 16
LOOP:
add r1, r1, r2
add r3, r1, r2
addi r9, r9, 1
bne r9, r10, LOOP
halt
"""


@pytest.fixture
def loop_prog():
    return parse(LOOP_SRC)


def _run(prog, observer=None):
    return simulate(prog, r10k_config("twobit"), observer=observer)[0]


def test_observed_run_has_identical_stats(loop_prog):
    """The observer must never perturb the simulation it watches."""
    baseline = _run(loop_prog)
    observed = _run(loop_prog, observer=PipelineObserver(sample_interval=1))
    assert json.dumps(baseline.to_dict(), sort_keys=True) \
        == json.dumps(observed.to_dict(), sort_keys=True)


def test_sampling_and_heat_report(loop_prog):
    obs = PipelineObserver(sample_interval=1)
    _run(loop_prog, observer=obs)
    assert sum(obs.pc_samples.values()) == obs.trace_entries
    report = heat_report(obs.pc_samples, loop_prog, loop_prog.name)
    assert report.startswith(f"heat report: {loop_prog.name} (")
    assert f"{obs.trace_entries} samples" in report
    assert "#" in report  # at least one heat bar


def test_heat_report_empty_samples(loop_prog):
    report = heat_report({}, loop_prog, loop_prog.name)
    assert "(no samples)" in report


def test_sample_interval_thins_samples(loop_prog):
    dense = PipelineObserver(sample_interval=1)
    sparse = PipelineObserver(sample_interval=7)
    _run(loop_prog, observer=dense)
    _run(loop_prog, observer=sparse)
    assert sum(sparse.pc_samples.values()) \
        == dense.trace_entries // 7


@pytest.fixture(scope="module")
def grep_trace():
    """grep at scale 0.1 and its reference trace's static indices: more
    than one batch of the fast stream."""
    prog = benchmark_programs(0.1)["grep"]
    indices = [entry.index for entry in
               FunctionalSim(prog, record_outcomes=False).trace()]
    assert len(indices) > FLUSH
    return prog, indices


@pytest.mark.parametrize("interval", [1, 7, 1000])
def test_samples_match_the_reference_trace(grep_trace, interval):
    """The sampler counts every N-th entry of the fast batch stream
    across batch boundaries, and passes every batch on: its histogram is
    that of every N-th entry of the reference trace."""
    prog, indices = grep_trace
    expected: dict[int, int] = {}
    for index in indices[interval - 1::interval]:
        expected[index] = expected.get(index, 0) + 1
    obs = PipelineObserver(sample_interval=interval)
    batches = FastFunctionalSim(prog, record_outcomes=False).batches()
    passed = [i for idxs, _, _, _ in obs.sample(batches) for i in idxs]
    assert passed == indices
    assert obs.trace_entries == len(indices)
    assert obs.pc_samples == expected

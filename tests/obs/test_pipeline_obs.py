"""Pipeline observer: result parity, sampling, entropy, metric feeds."""

import json

import pytest

from repro.isa import parse
from repro.obs.metrics import MetricsRegistry, metrics_enable
from repro.obs.pipeline_obs import (
    PipelineObserver, heat_report, maybe_observer, outcome_entropy,
)
from repro.sim import TimingSim, r10k_config


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
    return TimingSim(r10k_config("twobit"), observer=observer)\
        .run_program(prog)


def test_observed_run_has_identical_stats(loop_prog):
    """The observer must never perturb the simulation it watches."""
    baseline = _run(loop_prog)
    observed = _run(loop_prog, observer=PipelineObserver(MetricsRegistry()))
    assert json.dumps(baseline.to_dict(), sort_keys=True) \
        == json.dumps(observed.to_dict(), sort_keys=True)


def test_counters_fed_from_run(loop_prog):
    reg = MetricsRegistry()
    reg.enable()
    obs = PipelineObserver(reg)
    stats = _run(loop_prog, observer=obs)
    snap = reg.snapshot()
    assert snap["counters"]["pipeline.cycles"] == stats.cycles
    assert snap["counters"]["pipeline.committed"] == stats.committed
    assert snap["counters"]["pipeline.traced_entries"] == obs.trace_entries
    # Rate histograms saw one observation per cycle-stage call.
    assert snap["histograms"]["pipeline.retire_per_cycle"]["count"] > 0
    assert snap["histograms"]["pipeline.issue_per_cycle"]["count"] > 0
    assert snap["histograms"]["pipeline.fetch_per_cycle"]["count"] > 0


def test_branch_entropy_recorded(loop_prog):
    reg = MetricsRegistry()
    reg.enable()
    obs = PipelineObserver(reg)
    _run(loop_prog, observer=obs)
    # The loop back-edge is taken 15/16 times: entropy strictly in (0, 1).
    assert obs.branch_outcomes, "no branch outcomes collected"
    assert obs.branch_entropy
    for h in obs.branch_entropy.values():
        assert 0.0 < h < 1.0
    assert reg.snapshot()["histograms"]["pipeline.branch_entropy"]["count"] \
        == len(obs.branch_entropy)


def test_sampling_and_heat_report(loop_prog):
    obs = PipelineObserver(MetricsRegistry(), sample_interval=1)
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
    dense = PipelineObserver(MetricsRegistry(), sample_interval=1)
    sparse = PipelineObserver(MetricsRegistry(), sample_interval=7)
    _run(loop_prog, observer=dense)
    _run(loop_prog, observer=sparse)
    assert sum(sparse.pc_samples.values()) \
        == dense.trace_entries // 7


def test_maybe_observer_gating():
    assert maybe_observer() is None  # registry disabled (conftest)
    obs = maybe_observer(sample_interval=5)
    assert obs is not None and obs.sample_interval == 5
    metrics_enable()
    assert isinstance(maybe_observer(), PipelineObserver)


@pytest.mark.parametrize("taken,total,expected", [
    (0, 0, 0.0),      # no outcomes
    (0, 10, 0.0),     # never taken
    (10, 10, 0.0),    # always taken
    (5, 10, 1.0),     # perfectly unbiased
])
def test_outcome_entropy_edges(taken, total, expected):
    assert outcome_entropy(taken, total) == pytest.approx(expected)


def test_outcome_entropy_asymmetric():
    h = outcome_entropy(1, 10)
    assert 0.0 < h < outcome_entropy(3, 10) < 1.0

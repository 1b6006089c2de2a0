"""Tests of the benchmark's layer ledger.

Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from ledger import LAYERS, Ledger, leftover_wrappers  # noqa: E402

#: Sleep injected into every verify_program call.
DELAY_S = 0.002


def traced_campaign():
    """The first fuzz campaign of seed 0 under the ledger:
    (ledger, traced wall)."""
    campaign = workloads.FuzzCampaign(seed=0, scratch=None)
    with Ledger() as ledger:
        ledger.active = True
        start = time.perf_counter()
        result = campaign.op()
        wall = time.perf_counter() - start
        ledger.active = False
    assert campaign.check(result).failed == 0
    return ledger, wall


def test_rows_sum_to_the_traced_wall_time():
    ledger, wall = traced_campaign()
    assert ledger.open_spans == 0
    assert all(stats.self_s >= 0 for stats in ledger.stats.values())
    other = wall - ledger.self_total()
    assert 0 <= other < 0.25 * wall
    functional = ledger.stats["sim.functional"]
    assert 0 < functional.calls == functional.extra["runs"] \
        < functional.extra["instrs"]


def test_trace_generator_is_one_functional_span_per_run():
    from repro.sim import r10k_config, simulate

    prog = workloads.stock.compress_program(n=64)
    with Ledger() as ledger:
        ledger.active = True
        start = time.perf_counter()
        stats = simulate(prog, r10k_config("twobit"))
        wall = time.perf_counter() - start
        ledger.active = False
    functional = ledger.stats["sim.functional"]
    timing = ledger.stats["sim.timing"]
    assert (functional.calls, functional.extra["runs"], timing.calls) \
        == (1, 1, 1)
    assert functional.extra["instrs"] > 1000
    assert timing.extra["cycles"] == stats.cycles
    assert functional.self_s > 0 and timing.self_s > 0
    assert functional.self_s + timing.self_s <= wall


def test_sleep_in_verify_program_is_charged_to_robust_verify_only(
        monkeypatch):
    baseline, _ = traced_campaign()

    from repro.robust import verifier
    original = verifier.verify_program
    sleeps = []

    def slow_verify(*args, **kwargs):
        sleeps.append(1)
        time.sleep(DELAY_S)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") \
                and vars(module).get("verify_program") is original:
            monkeypatch.setattr(module, "verify_program", slow_verify)
    slowed, _ = traced_campaign()

    injected = len(sleeps) * DELAY_S
    assert injected > 0.2
    delta = {name: slowed.stats[name].self_s - baseline.stats[name].self_s
             for name in baseline.stats}
    assert injected <= delta.pop("robust.verify") < 2 * injected
    assert all(abs(d) < 0.1 * injected for d in delta.values()), delta
    assert {n: s.calls for n, s in slowed.stats.items()} \
        == {n: s.calls for n, s in baseline.stats.items()}


def test_uninstall_restores_every_patched_attribute():
    from repro.isa import parser

    ledger = Ledger()
    ledger.install()
    patched = list(ledger.patches)
    assert len(patched) > sum(len(layer.targets) for layer in LAYERS)
    assert all(vars(owner)[attr] is not original
               for owner, attr, original in patched)
    # A module first imported inside the traced block binds a wrapper.
    late = types.ModuleType("repro._late_import")
    late.parse = parser.parse
    sys.modules[late.__name__] = late
    try:
        ledger.active = True
        workloads.stock.compress_program(n=64)
        ledger.active = False
        assert ledger.stats["isa.parse"].calls == 1
        assert ledger.uninstall() == []
        assert late.parse is vars(parser)["parse"]
    finally:
        del sys.modules[late.__name__]
    assert all(vars(owner)[attr] is original
               for owner, attr, original in patched)
    assert leftover_wrappers() == []

"""End-to-end acceptance of the evaluation service (the ISSUE contract).

* Two tenants submit overlapping suites → each unique cell executes
  exactly once fleet-wide (asserted with the engine's process-local
  execution counters: the fleet runs on threads in this process).
* A warm replay is served entirely from the tenant's cache namespace —
  zero compiles, zero simulations, nothing enqueued.
* A rate-limited tenant receives structured backpressure (code,
  retry_after_s) rather than prose.
* ``Session(remote=...)`` results are byte-identical to a local run.
* Results stream back as JSONL in submission order.
"""

import dataclasses
import json

import pytest

from repro.api import Session
from repro.core.heuristics import DEFAULT_HEURISTICS
from repro.engine.cells import COUNTERS
from repro.serve import (
    Backpressure, EvalServer, ServeClient, ServeConfig, ServeError,
)
from repro.serve import worker as worker_mod
from repro.qa.cells import FuzzCellSpec, fuzz_cell_key
from repro.serve.client import suite_cells
from repro.workloads import benchmark_programs

MAX_STEPS = 100_000


def _grid(seed=11):
    programs = {"grep": benchmark_programs(0.02, seed=seed)["grep"]}
    return suite_cells(programs, DEFAULT_HEURISTICS, None, MAX_STEPS)


def _cells(grid):
    return [(key, payload) for _, _, key, _, payload in grid]


def test_two_tenants_execute_each_unique_cell_once(server, monkeypatch):
    # Hold the fleet at the gate until both tenants have submitted, so
    # the overlap is guaranteed rather than won by racing the workers.
    import threading

    gate = threading.Event()
    real = worker_mod.execute_payload

    def gated(kind, spec):
        gate.wait(timeout=60.0)
        return real(kind, spec)

    monkeypatch.setattr(worker_mod, "execute_payload", gated)

    grid = _grid()
    alice = ServeClient(server.url, tenant="alice", timeout=120.0)
    bob = ServeClient(server.url, tenant="bob", timeout=120.0)
    job_a = alice.submit_cells(_cells(grid))
    job_b = bob.submit_cells(_cells(grid))

    # Bob's whole batch rode Alice's in-flight cells.
    assert job_b["n_deduped"] == len(grid)
    assert job_b["n_cache_hits"] == 0

    gate.set()
    results_a = dict(alice.results(job_a["job_id"]))
    results_b = dict(bob.results(job_b["job_id"]))

    # Exactly one execution per unique cell, fleet-wide.
    assert COUNTERS.compiles == len(grid)
    assert COUNTERS.simulates == len(grid)
    # Both tenants hold the same artifacts, byte for byte.
    assert json.dumps(results_a, sort_keys=True) == \
        json.dumps(results_b, sort_keys=True)
    assert all(r["failure"] is None for r in results_a.values())


def test_warm_replay_does_zero_work(server):
    grid = _grid(seed=12)
    client = ServeClient(server.url, tenant="alice", timeout=120.0)
    client.run_cells(_cells(grid))               # cold fill

    COUNTERS.reset()
    job = client.submit_cells(_cells(grid))
    # Every cell answered from the tenant's namespace at submission
    # time: the job arrives already done, nothing was enqueued.
    assert job["state"] == "done"
    assert job["n_cache_hits"] == len(grid)
    assert client.results(job["job_id"])         # results still stream
    assert COUNTERS.compiles == 0
    assert COUNTERS.simulates == 0
    assert server.queue.depth() == 0


def test_tenant_namespaces_stay_isolated(server):
    # Bob submitting *after* Alice finished gets no cross-tenant cache
    # hit (his namespace is cold) — isolation is per-tenant by design.
    grid = _grid(seed=13)
    alice = ServeClient(server.url, tenant="alice", timeout=120.0)
    alice.run_cells(_cells(grid))
    bob = ServeClient(server.url, tenant="bob", timeout=120.0)
    job = bob.submit_cells(_cells(grid))
    assert job["n_cache_hits"] == 0
    bob.results(job["job_id"])


def test_rate_limited_tenant_gets_structured_backpressure(tmp_path):
    config = ServeConfig(port=0, workers=1, cache_dir=tmp_path / "c",
                        rate=0.001, burst=2)
    with EvalServer(config) as server:
        sleeps = []
        client = ServeClient(server.url, tenant="greedy", timeout=30.0,
                             sleep=sleeps.append)
        spec = FuzzCellSpec("diamonds", 1, max_steps=1000)
        cells = [(fuzz_cell_key(spec), dataclasses.asdict(spec))]
        client.submit_cells(cells, kind="fuzz")
        client.submit_cells(cells, kind="fuzz")  # burst spent
        with pytest.raises(Backpressure) as exc_info:
            client.submit_cells(cells, kind="fuzz")
        err = exc_info.value
        assert err.code == "rate_limited"
        assert err.details["tenant"] == "greedy"
        assert err.details["retry_after_s"] > 0
        # The client honored the advertised (capped) retry delay.
        assert sleeps and all(s > 0 for s in sleeps)


def _forged_and_honest(seed):
    """Proposed's key paired with 2bitBP's spec, and Proposed's own cell."""
    by_scheme = {scheme: (key, payload)
                 for _, scheme, key, _, payload in _grid(seed=seed)}
    forged = (by_scheme["Proposed"][0], by_scheme["2bitBP"][1])
    return forged, by_scheme["Proposed"]


def test_forged_key_cannot_poison_the_honest_cell(server):
    forged, honest = _forged_and_honest(seed=18)
    client = ServeClient(server.url, tenant="mallory", timeout=120.0)
    with pytest.raises(ServeError) as exc_info:
        client.submit_cells([forged])
    assert exc_info.value.code == "bad_request"
    assert forged[0] in str(exc_info.value)
    # Nothing was stored under Proposed's key: the honest cell runs and
    # gets Proposed's own result.
    job = client.submit_cells([honest])
    assert job["n_cache_hits"] == 0
    [(key, payload)] = client.results(job["job_id"])
    assert key == honest[0]
    assert payload["scheme"] == "Proposed"
    assert payload["failure"] is None


def test_forged_key_is_refused_before_the_rate_limiter(tmp_path):
    forged, honest = _forged_and_honest(seed=18)
    config = ServeConfig(port=0, workers=1, cache_dir=tmp_path / "c",
                         rate=0.001, burst=1)
    with EvalServer(config) as server:
        client = ServeClient(server.url, tenant="mallory", timeout=120.0,
                             sleep=lambda s: None)
        with pytest.raises(ServeError) as exc_info:
            client.submit_cells([forged])
        assert exc_info.value.code == "bad_request"
        # The refusal spent no token: the burst of one admits the honest
        # cell, and only then is the tenant out of budget.
        client.submit_cells([honest])
        with pytest.raises(Backpressure):
            client.submit_cells([honest])


def test_session_remote_results_byte_identical_to_local(server, tmp_path):
    programs = {"grep": benchmark_programs(0.02, seed=14)["grep"]}
    with Session(remote=server.url, tenant="alice",
                 max_steps=MAX_STEPS) as remote_session:
        remote_runs = remote_session.run_suite(benchmarks=programs)
    with Session(cache=tmp_path / "local-cache",
                 max_steps=MAX_STEPS) as local_session:
        local_runs = local_session.run_suite(benchmarks=programs)

    def as_dict(runs):
        return {name: {s: r.to_dict() for s, r in run.results.items()}
                for name, run in runs.items()}

    assert json.dumps(as_dict(remote_runs), sort_keys=True) == \
        json.dumps(as_dict(local_runs), sort_keys=True)


def test_results_stream_as_jsonl_in_submission_order(server):
    grid = _grid(seed=15)
    client = ServeClient(server.url, tenant="alice", timeout=120.0)
    job = client.submit_cells(_cells(grid))
    client.results(job["job_id"])                # wait for completion
    status, raw = client._request(
        "GET", f"/v1/jobs/{job['job_id']}/results")
    assert status == 200
    lines = [json.loads(line)
             for line in raw.decode("utf-8").splitlines() if line.strip()]
    assert [rec["key"] for rec in lines] == [k for k, _ in _cells(grid)]


def test_stats_expose_queue_fleet_cache_and_limits(server, client):
    grid = _grid(seed=16)
    client.run_cells(_cells(grid))
    stats = client.stats()
    assert stats["fleet"]["workers"] == 2
    assert stats["fleet"]["cells_executed"] >= len(grid)
    assert stats["queue"]["jobs_done"] >= 1
    assert stats["cache"]["namespaces"]["tenant-a"]["entries"] == len(grid)
    assert "tenant-a" in stats["ratelimit"]["tokens"]


def test_cli_jobs_command_against_live_server(server, client, capsys):
    from repro.__main__ import main

    grid = _grid(seed=17)
    client.run_cells(_cells(grid))
    assert main(["jobs", "--remote", server.url]) == 0
    out = capsys.readouterr().out
    assert "job-" in out and "done" in out and "queue:" in out

"""Remote parity: every experiment gives the same bytes through a server.

A session with ``remote=`` runs its cache misses on a live service
instead of the local pool; everything else — programs, specs, keys, the
cached loop, the result assembly — is the local code.  These tests run
each experiment both ways and compare the results byte for byte, and
pin the storage rules: failures are delivered but never stored.
"""

import json

from repro.api import Session
from repro.core.heuristics import DEFAULT_HEURISTICS
from repro.engine import SweepSpec, grid_from_dict
from repro.engine import cells as engine_cells
from repro.eval import suite_to_dict
from repro.serve import ServeClient
from repro.serve.client import suite_cells
from repro.workloads import benchmark_programs
from tests.tune.test_search import SPEC as TUNE_SPEC

MAX_STEPS = 200_000


def _dump(value) -> str:
    return json.dumps(value, sort_keys=True)


def _suite_programs():
    """grep, plus a compress whose program cannot be printed."""
    programs = benchmark_programs(0.02, seed=21)
    broken = programs["compress"]

    def unprintable():
        raise RuntimeError("cannot print")

    broken.to_dict = unprintable
    return {"grep": programs["grep"], "compress": broken}


def _experiments(session) -> dict:
    """Suite, sweep and fuzz results, each as canonical JSON."""
    runs = session.run_suite(benchmarks=_suite_programs())
    sweep = session.sweep(SweepSpec(
        scales=(0.02,), config_grid=grid_from_dict({"fetch_width": (2, 4)}),
        benchmarks=("grep",), max_steps=MAX_STEPS))
    fuzz = session.fuzz(budget=4, seed=0, shrink=False)
    return {"suite": _dump(suite_to_dict(runs)),
            "failures": sorted(cell.failure for run in runs.values()
                               for cell in run.results.values()
                               if not cell.ok),
            "sweep": _dump(sweep),
            "fuzz": _dump(fuzz.summary.to_dict())}


def test_remote_session_matches_local(server, tmp_path):
    tenant = ServeClient(server.url, tenant="parity")
    with Session(remote=server.url, tenant="parity", max_steps=MAX_STEPS,
                 cache=tmp_path / "remote-side") as s:
        remote = _experiments(s)
        kinds = {job["kind"] for job in tenant.jobs()}
        before = len(tenant.jobs())
        remote_tune = s.tune(TUNE_SPEC)
        tune_jobs = tenant.jobs()[before:]
        # A repeat is answered by the local cache: no new job.
        s.run_suite(benchmarks=_suite_programs())
        assert len(tenant.jobs()) == before + len(tune_jobs)
    with Session(max_steps=MAX_STEPS, cache=tmp_path / "local") as s:
        local = _experiments(s)
        local_tune = s.tune(TUNE_SPEC)

    # The unprintable program is five FAIL cells on both paths.
    assert remote["failures"] == ["RuntimeError: cannot print"] * 5
    for name in remote:
        assert remote[name] == local[name], name
    assert _dump(remote_tune.to_dict()) == _dump(local_tune.to_dict())

    assert kinds == {"cells", "fuzz"}
    # Each tune round's misses went to the server as one job.
    assert tune_jobs and all(j["kind"] == "cells" for j in tune_jobs)
    assert sum(j["n_cells"] for j in tune_jobs) \
        == remote_tune.cells_executed


def test_failures_are_delivered_but_never_stored(server, client,
                                                 monkeypatch):
    """A failure can be transient, so a stored one would answer every
    later submission of the same cells.  The fleet runs on threads in
    this process, so a patched simulator fails its PerfectBP cell once;
    the resubmission recomputes exactly that cell and replays the rest."""
    programs = {"grep": benchmark_programs(0.05)["grep"]}
    cells = [(key, payload) for _, _, key, _, payload in suite_cells(
        programs, DEFAULT_HEURISTICS, None, 50_000_000)]
    real = engine_cells.counted_simulate

    def flaky(prog, config, max_steps):
        if config.predictor == "perfect":
            raise RuntimeError("simulator down")
        return real(prog, config, max_steps)

    with monkeypatch.context() as patch:
        patch.setattr(engine_cells, "counted_simulate", flaky)
        first = client.run_cells(cells)
    assert [(p["scheme"], p["failure"]) for p in first.values()
            if p["failure"]] == [("PerfectBP", "RuntimeError: simulator down")]
    failed = {key for key, p in first.items() if p["failure"]}

    engine_cells.COUNTERS.reset()
    job = client.submit_cells(cells)
    second = dict(client.results(job["job_id"]))
    assert job["n_cache_hits"] == len(cells) - len(failed)
    assert (engine_cells.COUNTERS.compiles,
            engine_cells.COUNTERS.simulates) == (1, 1)
    assert all(p["failure"] is None for p in second.values())
    assert all(second[key] == first[key] for key in first
               if key not in failed)

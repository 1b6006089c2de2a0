"""Worker-death recovery and the retry path, through the service loop.

These tests drive a real :class:`JobQueue` + :class:`WorkerFleet` with a
monkeypatched ``execute_payload`` so the failure modes are deterministic:
an escaped exception (the only way a cell can hurt a worker — contained
failures come back as payloads), an outright worker death (``SystemExit``
kills the thread), and a cell so poisoned it exhausts the attempt budget.
"""

import subprocess
import sys
import threading
import time

import pytest

from repro.serve import LocalBackend
from repro.serve.queue import MAX_CELL_ATTEMPTS, JobQueue
from repro.serve.worker import WorkerFleet
from repro.serve import worker as worker_mod

KEY = "c" * 64


def _wait(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def _fleet(tmp_path, workers=2):
    queue = JobQueue()
    fleet = WorkerFleet(queue, LocalBackend(tmp_path), workers=workers)
    return queue, fleet


def test_escaped_exception_requeues_and_recovers(tmp_path, monkeypatch):
    calls = []

    def flaky(kind, spec):
        calls.append(kind)
        if len(calls) == 1:
            raise RuntimeError("interpreter-level fault")
        return {"ok": True}

    monkeypatch.setattr(worker_mod, "execute_payload", flaky)
    queue, fleet = _fleet(tmp_path)
    fleet.subscribe(KEY, "alice")
    job = queue.submit("alice", "fuzz", [(KEY, {})])
    fleet.start()
    try:
        assert _wait(lambda: job.done)
        assert job.results[KEY] == {"ok": True}
        assert len(calls) == 2                      # failed once, retried
        # The artifact reached the subscriber's namespace too.
        assert fleet.store.get("alice", KEY) == {"ok": True}
        stats = fleet.stats()
        assert (stats["escaped"], stats["cells_executed"]) == (1, 1)
        assert sum(w["escaped"] for w in stats["per_worker"].values()) == 1
    finally:
        queue.close()
        fleet.stop()


def test_failed_store_write_is_counted_and_the_job_completes(
        tmp_path, monkeypatch):
    """A result the store cannot write still reaches the job, and the
    failed write shows in the fleet's stats (``/v1/stats``)."""
    def broken_put(namespace, key, payload):
        raise OSError("no space left on device")

    monkeypatch.setattr(worker_mod, "execute_payload",
                        lambda kind, spec: {"ok": True})
    queue, fleet = _fleet(tmp_path)
    monkeypatch.setattr(fleet.store, "put", broken_put)
    fleet.subscribe(KEY, "alice")
    job = queue.submit("alice", "fuzz", [(KEY, {})])
    fleet.start()
    try:
        assert _wait(lambda: job.done)
        assert job.results[KEY] == {"ok": True}
        stats = fleet.stats()
        assert stats["store_failures"] >= 1
        assert sum(w["store_failures"] for w in stats["per_worker"].values()) \
            == stats["store_failures"]
        assert stats["escaped"] == 0
    finally:
        queue.close()
        fleet.stop()


# The worker re-raises SystemExit after requeueing (that IS the death);
# pytest flags the escaped thread exception, which is the point here.
@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_worker_death_leaves_fleet_serving(tmp_path, monkeypatch):
    first = threading.Event()

    def lethal_once(kind, spec):
        if not first.is_set():
            first.set()
            raise SystemExit("worker killed mid-cell")
        return {"survived": True}

    monkeypatch.setattr(worker_mod, "execute_payload", lethal_once)
    queue, fleet = _fleet(tmp_path, workers=2)
    job = queue.submit("alice", "fuzz", [(KEY, {})])
    fleet.start()
    try:
        assert _wait(lambda: job.done)
        assert job.results[KEY] == {"survived": True}
        # Exactly one worker died; the fleet kept serving on the other.
        assert _wait(lambda: fleet.stats()["alive"] == 1)
    finally:
        queue.close()
        fleet.stop()


def test_poisoned_cell_fails_after_attempt_budget(tmp_path, monkeypatch):
    calls = []

    def poisoned(kind, spec):
        calls.append(kind)
        raise RuntimeError("always fatal")

    monkeypatch.setattr(worker_mod, "execute_payload", poisoned)
    queue, fleet = _fleet(tmp_path)
    fleet.subscribe(KEY, "alice")
    job = queue.submit("alice", "fuzz", [(KEY, {})])
    fleet.start()
    try:
        # The job still completes — with a contained failure payload —
        # instead of wedging the queue forever.
        assert _wait(lambda: job.done)
        assert len(calls) == MAX_CELL_ATTEMPTS
        payload = job.results[KEY]
        assert "always fatal" in payload["error"]
        # Delivered, but never stored for a later submission to replay.
        assert fleet.store.get("alice", KEY) is None
    finally:
        queue.close()
        fleet.stop()


def test_engine_retry_runs_inside_the_service_loop(tmp_path, monkeypatch):
    # The engine's own cell retry (CELL_RETRIES) must fire when the cell
    # runs on a fleet thread: fail counted_compile once, succeed on the
    # retry, and the worker sees a clean payload — no requeue involved.
    from repro.engine import cells as engine_cells
    from repro.serve.client import suite_cells
    from repro.workloads import benchmark_programs

    real_compile = engine_cells.counted_compile
    failures = []

    def compile_flaky_once(scheme, prog, heur, max_steps, profile=None):
        if not failures:
            failures.append(scheme)
            raise RuntimeError("transient compile fault")
        return real_compile(scheme, prog, heur, max_steps, profile=profile)

    monkeypatch.setattr(engine_cells, "counted_compile",
                        compile_flaky_once)
    programs = {"grep": benchmark_programs(0.02, seed=1)["grep"]}
    from repro.core.heuristics import DEFAULT_HEURISTICS

    name, scheme, key, spec, payload = suite_cells(
        programs, DEFAULT_HEURISTICS, None, 100_000)[0]
    queue, fleet = _fleet(tmp_path)
    job = queue.submit("alice", "cells", [(key, payload)])
    fleet.start()
    try:
        assert _wait(lambda: job.done, timeout=60.0)
        result = job.results[key]
        assert failures == ["2bitBP"]               # the fault did fire
        assert result.get("failure") is None        # ...and was retried
        assert result["stats"] is not None
    finally:
        queue.close()
        fleet.stop()


def test_fleet_imports_the_simulator_before_its_workers_run(tmp_path):
    """Two workers' first lazy imports of ``repro.fastsim`` submodules
    could deadlock and fail a cell, so a fresh interpreter's fleet has
    the package loaded before any worker claims a cell."""
    import repro

    script = (
        "import sys\n"
        f"sys.path.insert(0, {next(iter(repro.__path__)) + '/..'!r})\n"
        "from repro.serve import JobQueue, LocalBackend, WorkerFleet\n"
        "assert 'repro.fastsim' not in sys.modules\n"
        "queue = JobQueue()\n"
        f"fleet = WorkerFleet(queue, LocalBackend({str(tmp_path)!r}))\n"
        "fleet.start()\n"
        "print('repro.fastsim.functional' in sys.modules)\n"
        "queue.close()\n"
        "fleet.stop()\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "True"

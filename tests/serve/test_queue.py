"""Job-queue lifecycle, fleet-wide dedup, and the requeue budget."""

import pytest

from repro.serve.queue import MAX_CELL_ATTEMPTS, JobQueue

KEY_A = "a" * 64
KEY_B = "b" * 64


def test_submit_claim_complete_lifecycle():
    q = JobQueue()
    job = q.submit("alice", "cells", [(KEY_A, {"spec": 1})])
    assert job.state == "queued" and not job.done
    key, kind, spec = q.claim(timeout=0.1)
    assert (key, kind, spec) == (KEY_A, "cells", {"spec": 1})
    q.complete(KEY_A, {"result": 9})
    assert job.done and job.state == "done"
    assert job.keys == [KEY_A] and job.results == {KEY_A: {"result": 9}}


def test_overlapping_jobs_share_one_execution():
    q = JobQueue()
    job1 = q.submit("alice", "cells", [(KEY_A, {}), (KEY_B, {})])
    job2 = q.submit("bob", "cells", [(KEY_A, {})])    # overlaps on A
    assert job2.n_deduped == 1
    assert q.depth() == 2                             # A and B, once each
    claimed = {q.claim(timeout=0.1)[0] for _ in range(2)}
    assert claimed == {KEY_A, KEY_B}
    assert q.claim(timeout=0.05) is None              # nothing else queued
    q.complete(KEY_A, {"r": "a"})
    q.complete(KEY_B, {"r": "b"})
    assert job1.done and job2.done
    assert job2.results[KEY_A] == job1.results[KEY_A]


def test_precomputed_cells_never_enqueue():
    q = JobQueue()
    job = q.submit("alice", "cells", [(KEY_A, {})],
                   precomputed={KEY_A: {"warm": True}})
    assert job.done and job.n_cache_hits == 1
    assert q.depth() == 0


def test_results_keep_submission_order():
    q = JobQueue()
    job = q.submit("alice", "cells", [(KEY_B, {}), (KEY_A, {})])
    q.claim(timeout=0.1), q.claim(timeout=0.1)
    q.complete(KEY_A, {"k": "a"})
    q.complete(KEY_B, {"k": "b"})
    assert [job.results[k] for k in job.keys] == [{"k": "b"}, {"k": "a"}]


def test_requeue_bounded_by_attempt_budget():
    q = JobQueue()
    q.submit("alice", "cells", [(KEY_A, {})])
    for _ in range(MAX_CELL_ATTEMPTS - 1):
        assert q.claim(timeout=0.1)[0] == KEY_A
        assert q.requeue(KEY_A)                       # budget remains
    assert q.claim(timeout=0.1)[0] == KEY_A
    assert not q.requeue(KEY_A)                       # budget exhausted


def test_wait_job_blocks_until_done():
    q = JobQueue()
    job = q.submit("alice", "cells", [(KEY_A, {})])
    assert not q.wait_job(job.job_id, timeout=0.05)   # times out
    q.claim(timeout=0.1)
    q.complete(KEY_A, {})
    assert q.wait_job(job.job_id, timeout=0.05)
    assert not q.wait_job("job-404", timeout=0.05)


def test_closed_queue_rejects_submissions():
    q = JobQueue()
    q.close()
    with pytest.raises(RuntimeError):
        q.submit("alice", "cells", [(KEY_A, {})])
    assert q.claim(timeout=0.05) is None


def test_stats_shape():
    q = JobQueue()
    q.submit("alice", "cells", [(KEY_A, {})])
    q.claim(timeout=0.1)
    s = q.stats()
    assert s == {"depth": 0, "in_flight": 1, "unique_cells": 1,
                 "jobs": 1, "jobs_done": 0}

"""Shared fixtures for the benchmark harness.

The full scheme suite run is expensive, so it is executed once per
session (at a reduced but representative scale) and shared by every
table-printing benchmark.  The ``benchmark`` fixture then times a single
representative unit of work, keeping pytest-benchmark's statistics
meaningful without re-running the whole sweep per round.

The session run goes through the evaluation engine: results land in the
artifact cache (``.repro-cache/`` or ``$REPRO_CACHE_DIR``), so a repeated
harness invocation skips the compile/simulate work entirely, and
``REPRO_JOBS=N`` fans cold cells out over worker processes.
"""

import os

import pytest

from repro.engine import ArtifactCache, LocalExecutor, run_suite

#: Scale factor for benchmark-suite runs (1.0 = the default workload sizes
#: used in EXPERIMENTS.md; reduced here to keep the harness quick).
SUITE_SCALE = 0.3


@pytest.fixture(scope="session")
def suite_runs():
    """The full Tables-3/4 sweep: every benchmark under every table
    column of :mod:`repro.core.schemes`, cached."""
    jobs = int(os.environ.get("REPRO_JOBS", "1"))
    return run_suite(scale=SUITE_SCALE, cache=ArtifactCache(),
                     executor=LocalExecutor(jobs))

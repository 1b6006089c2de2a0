"""Shared fixtures: an in-process service on an ephemeral port.

The server's worker fleet runs on threads inside the test process, so
the suite's ``engine_work`` fixture (``tests/conftest.py``) counts
exactly the compiles/simulates the fleet performed — which is how the
acceptance tests assert "executed exactly once fleet-wide" and "warm
replay does zero work" directly instead of inferring them from logs.
"""

from __future__ import annotations

import pytest

from repro.serve import EvalServer, ServeClient, ServeConfig


@pytest.fixture()
def server(tmp_path):
    """A live :class:`EvalServer` on port 0 with a temp cache root."""
    config = ServeConfig(port=0, workers=2, cache_dir=tmp_path / "cache",
                        rate=1000.0, burst=1000)
    with EvalServer(config) as srv:
        yield srv


@pytest.fixture()
def client(server):
    """A ``tenant-a`` client bound to the :func:`server` fixture."""
    return ServeClient(server.url, tenant="tenant-a", timeout=60.0)


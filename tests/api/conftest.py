"""Session-test hygiene: no tracer leaks across tests."""

import pytest

from repro.obs import trace as _trace


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Uninstall any tracer before and after each test."""
    _trace.uninstall()
    yield
    _trace.uninstall()

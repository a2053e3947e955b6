"""Obs tests mutate process-global observability state; isolate each test."""

from __future__ import annotations

import pytest

from repro.obs import reset_default_registry, shutdown


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Fresh tracer/registry before and after every obs test."""
    shutdown()
    reset_default_registry()
    yield
    shutdown()
    reset_default_registry()

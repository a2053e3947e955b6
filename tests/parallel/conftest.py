"""Shared fixtures for the parallel-execution tests."""

import pytest

from repro.parallel import resilient


@pytest.fixture
def no_backoff(monkeypatch):
    """Retries without sleeping in between."""
    monkeypatch.setattr(resilient, "BACKOFF_BASE", 0.0)

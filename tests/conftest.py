"""Fixtures shared by more than one test module."""

import pytest

from infolab.verify import run_all


@pytest.fixture(scope="session")
def seed_42_results():
    """One ``run_all(seed=42)`` per session, shared by the verify and golden tests."""
    return run_all(seed=42)

"""Shared fixtures: deterministic seeding for every test, and an
isolated model and result cache for tests that train or store."""

import numpy as np
import pytest

from repro.eval import clear_memory_cache
from repro.tensor import manual_seed


@pytest.fixture(autouse=True)
def _seed_everything():
    manual_seed(1234)
    yield


@pytest.fixture
def rng():
    return np.random.default_rng(99)


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """``tmp_path`` as ``REPRO_CACHE_DIR``, with no model or campaign
    value cached in memory on entry or exit."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_memory_cache()
    yield tmp_path
    clear_memory_cache()

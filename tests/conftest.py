"""Shared fixtures: seeded random model corpora used across suites."""

from __future__ import annotations

import numpy as np
import pytest

from nfgdual.validate import random_connected_graph, random_model  # noqa: F401


@pytest.fixture(scope="session")
def small_model_corpus():
    """40 seeded random models for cross-suite invariants (acceptance uses 500)."""
    rng = np.random.default_rng(20240817)
    return [random_model(rng) for _ in range(40)]

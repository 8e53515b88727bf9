"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import os
import resource

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# A single profile keeps property tests fast by default; set
# REPRO_HYPOTHESIS_EXAMPLES to dig deeper locally.
settings.register_profile(
    "repro",
    max_examples=int(os.environ.get("REPRO_HYPOTHESIS_EXAMPLES", "40")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests that sample."""
    return np.random.default_rng(20240611)


@pytest.fixture
def small_search_config():
    """A* budget small enough for unit tests."""
    from repro.core.astar import SearchConfig

    return SearchConfig(max_nodes=20_000, time_limit=15.0)


def pytest_terminal_summary(terminalreporter):
    """Report the session's peak resident set size, for this process and
    for its children: memory, not time, is what limits the suite."""
    # ru_maxrss is in KiB on Linux
    peaks = {name: resource.getrusage(who).ru_maxrss / 1024
             for name, who in (("process", resource.RUSAGE_SELF),
                               ("children", resource.RUSAGE_CHILDREN))}
    terminalreporter.write_line(
        "peak RSS: " + ", ".join(f"{name} {mb:,.0f} MB"
                                 for name, mb in peaks.items()))

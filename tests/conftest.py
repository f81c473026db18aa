"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os

# The analysis cache must never leak a developer's ~/.cache/repro into
# test results: the suite runs cache-free unless a test opts in with an
# explicit store (see the ``cache_store`` fixture).  Set before any
# repro import so the lazily-initialised active store sees it.
os.environ["REPRO_NO_CACHE"] = "1"

# Likewise the run registry: hundreds of tests drive `main()` and must
# not deposit manifests under ~/.local/state.  Tests that exercise the
# flight recorder point REPRO_RUNS_DIR at a tmp dir and clear this.
os.environ["REPRO_NO_RUNS"] = "1"

import pytest
from hypothesis import HealthCheck, settings

from repro import (
    binary_threshold,
    flat_threshold,
    leader_unary_threshold,
    majority_protocol,
    modulo_protocol,
)
from repro.cache import CacheStore, reset_store_from_env, use_store
from repro.protocols.builders import ProtocolBuilder

reset_store_from_env()

def pytest_configure(config):
    # Registered in pyproject.toml too; kept here so ad-hoc invocations
    # that bypass the ini file (e.g. pytest -p no:cacheprovider -c /dev/null)
    # still know the marker.
    config.addinivalue_line(
        "markers",
        "slow: long-running conformance sweeps (deselected by default; run with `pytest -m slow`)",
    )


# Keep hypothesis deterministic-ish and fast in CI-like runs.
settings.register_profile(
    "repro",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def cache_store(tmp_path):
    """An isolated active cache store rooted in this test's tmp dir."""
    store = CacheStore(str(tmp_path / "cache"))
    with use_store(store):
        yield store


@pytest.fixture
def majority():
    return majority_protocol()


@pytest.fixture
def threshold4():
    """The P'_2 protocol: x >= 4 with 4 states."""
    return binary_threshold(4)


@pytest.fixture
def threshold5():
    """x >= 5 (non-power threshold: exercises the collector states)."""
    return binary_threshold(5)


@pytest.fixture
def flat3():
    return flat_threshold(3)


@pytest.fixture
def mod3():
    return modulo_protocol({"x": 1}, 1, 3)


@pytest.fixture
def leader3():
    return leader_unary_threshold(3)


@pytest.fixture
def churn():
    """All-output-1 states churning forever: consensus, never silent (from 3 agents)."""
    return (
        ProtocolBuilder("churn")
        .state("p", output=1)
        .state("q", output=1)
        .rule("p", "p", "p", "q")
        .rule("q", "q", "q", "p")
        .rule("p", "q", "q", "p")
        .input("x", "p")
        .build()
    )

"""Benchmark fixtures.

The benchmarks regenerate every paper artefact at a benchmark-friendly
scale (quick mode for the heavy multi-workload sweeps, full scale for the
analytic ones) and attach the headline measurements as ``extra_info`` so the
pytest-benchmark table doubles as a results summary.
"""

from __future__ import annotations

import os

import pytest

from repro import settings
from repro.experiments.common import ExperimentConfig, get_database


@pytest.fixture(autouse=True)
def _fresh_settings():
    """Each benchmark resolves the knobs from its own environment."""
    settings.reset()
    yield
    settings.reset()


@pytest.fixture(scope="session")
def quick_cfg() -> ExperimentConfig:
    return ExperimentConfig(quick=True)


@pytest.fixture(scope="session")
def full_cfg() -> ExperimentConfig:
    return ExperimentConfig()


@pytest.fixture(scope="session", autouse=True)
def primed_database():
    """Build (or load) the shared database once, outside any timing loop.

    ``REPRO_BENCH_NO_PRIME=1`` skips the build for quick substrate-only
    smoke runs (e.g. CI) that never touch the shared database.
    """
    if os.environ.get("REPRO_BENCH_NO_PRIME"):
        return None
    return get_database(4, 2020)

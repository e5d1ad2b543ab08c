"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables/figures using the
``quick`` experiment settings (scale 1024, short traces) so the whole suite
finishes in minutes.  Use ``python -m repro.experiments.runner --full``
(``ExperimentSettings.full()``; docs/experiments.md) for higher-fidelity
numbers.

The experiment context is session-scoped so runs are shared between figures
(e.g. the Fig. 6 runs are reused by Fig. 8 and Fig. 9).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.common import ExperimentContext, ExperimentSettings


def _settings() -> ExperimentSettings:
    if os.environ.get("REPRO_BENCH_FULL"):
        return ExperimentSettings.full()
    return ExperimentSettings.quick()


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    return _settings()


@pytest.fixture(scope="session")
def context(settings) -> ExperimentContext:
    """Quad-socket experiment context shared by all benchmarks."""
    return ExperimentContext(settings)


@pytest.fixture(scope="session")
def dual_context(settings) -> ExperimentContext:
    """Dual-socket context (Fig. 7)."""
    return ExperimentContext(settings.dual_socket())


@pytest.fixture(scope="session")
def sensitivity_workloads() -> list:
    """Subset of workloads used by the sensitivity sweeps to bound runtime."""
    return ["streamcluster", "facesim", "cassandra"]


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)

"""Tests for the experiment infrastructure (settings, context, memoisation)."""

from dataclasses import replace

import pytest

from repro.experiments.common import (
    DESIGNS,
    DRAM_CACHE_DESIGNS,
    ExperimentContext,
    ExperimentSettings,
    speedup,
)


TINY = ExperimentSettings(
    scale=4096, accesses_per_thread=150, warmup_accesses_per_thread=50,
    num_sockets=2, cores_per_socket=2,
)


def test_design_lists():
    assert DESIGNS[0] == "baseline"
    assert set(DRAM_CACHE_DESIGNS) == set(DESIGNS) - {"baseline"}


def test_settings_profiles():
    assert ExperimentSettings.quick().scale > ExperimentSettings.full().scale
    dual = ExperimentSettings().dual_socket()
    assert dual.num_sockets == 2 and dual.cores_per_socket == 16
    assert dual.total_cores == 32
    assert ExperimentSettings().trace_length == 3000 + 1000


def test_make_config_respects_settings():
    context = ExperimentContext(TINY)
    config = context.make_config("c3d")
    assert config.num_sockets == 2
    assert config.cores_per_socket == 2
    assert config.protocol == "c3d"
    # Scaled down from 16 MB but never below the 64 KB floor.
    assert 64 * 1024 <= config.llc.size_bytes < 16 * 1024 * 1024
    baseline = context.make_config("baseline")
    assert baseline.protocol == "baseline"


def test_make_workload_respects_settings():
    context = ExperimentContext(TINY)
    workload = context.make_workload("streamcluster")
    assert workload.num_threads == TINY.total_cores
    assert workload.accesses_per_thread == TINY.trace_length


def test_run_returns_record_and_memoises():
    context = ExperimentContext(TINY)
    first = context.run("streamcluster", "baseline")
    second = context.run("streamcluster", "baseline")
    assert first is second                       # memoised
    assert first.total_time_ns > 0
    assert first.stats.reads > 0
    assert first.protocol == "baseline"
    assert first.memory_accesses > 0


def test_run_memoises_on_config_content():
    """The memo is keyed on the store content key: configurations with equal
    content share one record however they were built, and any difference
    in content is a different run."""
    context = ExperimentContext(TINY)
    default = context.run("streamcluster", "baseline")
    config = context.make_config("baseline")
    assert config is not default.config
    assert context.run("streamcluster", "baseline", config=config) is default
    llc = replace(config.llc, size_bytes=2 * config.llc.size_bytes)
    bigger = context.run("streamcluster", "baseline", config=replace(config, llc=llc))
    assert bigger is not default
    assert bigger is context.run(
        "streamcluster", "baseline", config=replace(config, llc=replace(llc))
    )


def test_speedup_definition():
    context = ExperimentContext(TINY)
    baseline = context.run("streamcluster", "baseline")
    c3d = context.run("streamcluster", "c3d")
    value = speedup(baseline, c3d)
    assert value == pytest.approx(baseline.total_time_ns / c3d.total_time_ns)

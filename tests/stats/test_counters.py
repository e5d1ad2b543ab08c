"""Tests for the statistics counters."""

import pytest

from repro.stats.counters import LatencyAccumulator, SimulationStats


def test_latency_accumulator():
    acc = LatencyAccumulator()
    assert acc.mean == 0.0
    acc.add(10.0)
    acc.add(30.0)
    assert acc.count == 2
    assert acc.mean == pytest.approx(20.0)
    assert acc.maximum == 30.0


def test_memory_access_aggregates():
    stats = SimulationStats()
    stats.memory_reads_local = 10
    stats.memory_reads_remote = 30
    stats.memory_writes_local = 5
    stats.memory_writes_remote = 15
    assert stats.memory_accesses == 60
    assert stats.memory_reads == 40
    assert stats.memory_writes == 20
    assert stats.remote_memory_fraction() == pytest.approx(45 / 60)


def test_fractions_with_no_accesses_are_zero():
    stats = SimulationStats()
    assert stats.remote_memory_fraction() == 0.0
    assert stats.l1_hit_rate() == 0.0
    assert stats.llc_hit_rate() == 0.0
    assert stats.dram_cache_hit_rate() == 0.0
    assert stats.amat_ns() == 0.0
    assert stats.total_time_ns() == 0.0


def test_hit_rates():
    stats = SimulationStats()
    stats.l1_hits, stats.l1_misses = 80, 20
    stats.llc_hits, stats.llc_misses = 10, 10
    stats.dram_cache_hits, stats.dram_cache_misses = 3, 7
    assert stats.l1_hit_rate() == pytest.approx(0.8)
    assert stats.llc_hit_rate() == pytest.approx(0.5)
    assert stats.dram_cache_hit_rate() == pytest.approx(0.3)


def test_total_time_is_slowest_core():
    stats = SimulationStats()
    stats.core_finish_ns = {0: 100.0, 1: 250.0, 2: 50.0}
    assert stats.total_time_ns() == 250.0


def test_as_dict_contains_key_quantities():
    stats = SimulationStats()
    stats.reads = 5
    stats.extra["ablation"] = 1.5
    flattened = stats.as_dict()
    assert flattened["reads"] == 5
    assert "amat_ns" in flattened
    assert "remote_memory_fraction" in flattened
    assert flattened["extra.ablation"] == 1.5

"""Tests for the AMAT decomposition helpers."""

import pytest

from repro.stats.amat import amat_breakdown
from repro.stats.counters import SimulationStats


def test_breakdown_fractions_sum_to_one():
    stats = SimulationStats()
    stats.reads = 100
    stats.l1_hits = 50
    stats.llc_hits = 20
    stats.served_local_dram_cache = 10
    stats.served_remote_memory = 20
    stats.read_latency.add(10.0)
    breakdown = amat_breakdown(stats)
    assert sum(breakdown.fractions.values()) == pytest.approx(1.0)
    assert breakdown.amat_ns == pytest.approx(10.0)
    text = breakdown.format()
    assert "AMAT" in text and "l1" in text


def test_breakdown_with_no_reads():
    breakdown = amat_breakdown(SimulationStats())
    assert breakdown.total_reads == 1
    assert sum(breakdown.fractions.values()) == 0.0

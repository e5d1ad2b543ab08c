"""Tests for the parallel sweep runner and statistics merging."""

import pytest

from repro.experiments.runner import (
    SweepPoint,
    run_sweep,
)
from repro.stats.counters import LatencyAccumulator, SimulationStats

TINY = dict(
    scale=4096,
    accesses_per_thread=150,
    warmup_accesses_per_thread=0,
    num_sockets=2,
    cores_per_socket=1,
)


def test_run_sweep_sequential():
    points = [
        SweepPoint(workload="facesim", protocol="baseline", **TINY),
        SweepPoint(workload="facesim", protocol="c3d", **TINY),
    ]
    results = run_sweep(points)
    assert [r.point for r in results] == points
    for result in results:
        assert result.accesses_executed == 150 * 2
        assert result.stats.reads + result.stats.writes == result.accesses_executed


def test_run_sweep_parallel_matches_sequential():
    points = [
        SweepPoint(workload="facesim", protocol="baseline", **TINY),
        SweepPoint(workload="streamcluster", protocol="c3d", **TINY),
        SweepPoint(workload="facesim", protocol="c3d", **TINY),
    ]
    sequential = run_sweep(points)
    parallel = run_sweep(points, jobs=2)
    assert [r.point for r in parallel] == points
    for seq, par in zip(sequential, parallel):
        # Simulations are deterministic, so worker processes must reproduce
        # the in-process results exactly.
        assert seq.stats.as_dict() == par.stats.as_dict()
        assert seq.inter_socket_bytes == par.inter_socket_bytes
        assert seq.accesses_executed == par.accesses_executed


def test_merge_stats_sums_counters():
    points = [
        SweepPoint(workload="facesim", protocol="c3d", **TINY),
        SweepPoint(workload="streamcluster", protocol="c3d", **TINY),
    ]
    results = run_sweep(points)
    merged = SimulationStats()
    for result in results:
        merged.merge(result.stats)
    for counter in ("reads", "writes", "l1_hits", "llc_misses", "memory_reads_local"):
        assert getattr(merged, counter) == sum(
            getattr(r.stats, counter) for r in results
        )
    assert merged.read_latency.count == sum(r.stats.read_latency.count for r in results)
    assert merged.read_latency.total == pytest.approx(
        sum(r.stats.read_latency.total for r in results)
    )
    assert merged.read_latency.maximum == max(
        r.stats.read_latency.maximum for r in results
    )


def test_simulation_stats_merge_core_finish_keeps_slowest():
    a = SimulationStats()
    b = SimulationStats()
    a.core_finish_ns = {0: 10.0, 1: 5.0}
    b.core_finish_ns = {1: 7.0, 2: 3.0}
    a.merge(b)
    assert a.core_finish_ns == {0: 10.0, 1: 7.0, 2: 3.0}


def test_latency_accumulator_merge():
    a = LatencyAccumulator()
    b = LatencyAccumulator()
    a.add(1.0)
    a.add(3.0)
    b.add(7.0)
    a.merge(b)
    assert a.count == 3
    assert a.total == pytest.approx(11.0)
    assert a.maximum == 7.0

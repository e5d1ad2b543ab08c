"""End-to-end tests of the per-figure experiment modules (tiny settings).

These tests check that each experiment produces the right *structure* (rows,
columns, normalisations) and the coarse directional properties that do not
require long runs; the quantitative comparison against the paper lives in
the benchmark harness (``benchmarks/``), which ``--full`` runs at
``ExperimentSettings.full()`` (docs/experiments.md).
"""

import math

import pytest

from repro.experiments import ExperimentContext, ExperimentSettings
from repro.experiments import (
    broadcast_filter,
    directory_cost,
    fig2,
    fig3,
    fig6,
    fig8,
    fig9,
    fig10,
    fig11,
    table1,
)

#: Two representative workloads keep these tests fast.
TINY = ExperimentSettings(
    scale=4096, accesses_per_thread=200, warmup_accesses_per_thread=50,
    num_sockets=2, cores_per_socket=2,
)


@pytest.fixture(scope="module")
def context():
    ctx = ExperimentContext(TINY)
    # Restrict the workload list to keep module runtime in seconds.
    ctx.workloads = lambda: ["streamcluster", "facesim"]
    return ctx


def test_table1_reports_remote_fractions(context):
    measured = table1.run_table1(context)
    assert set(measured) == {"streamcluster", "facesim"}
    assert all(0.0 <= value <= 1.0 for value in measured.values())
    text = table1.format_table1(measured)
    assert "average" in text and "%" in text


def test_fig2_idealisations_structure(context):
    series = fig2.run_fig2(context)
    assert "geomean" in series
    for row in series.values():
        assert set(row) == set(fig2.IDEALISATIONS)
        assert all(value > 0 for value in row.values())
    # Removing latency/bandwidth constraints can only help (within noise).
    assert series["geomean"]["0_qpi_lat"] >= 0.95


def test_fig3_normalised_to_smallest_cache(context):
    series = fig3.run_fig3(context)
    for workload, row in series.items():
        assert set(row) == {"64MB", "256MB", "1GB"}
        # Larger caches cannot increase memory accesses (monotone, within noise).
        assert row["1GB"] <= row["64MB"] + 0.05
    assert "average" in series


def test_fig6_speedups_structure(context):
    series = fig6.run_fig6(context)
    assert "geomean" in series
    for row in series.values():
        assert set(row) == {"snoopy", "full-dir", "c3d", "c3d-full-dir"}
    # C3D must help on streamcluster even at tiny scale.
    assert series["streamcluster"]["c3d"] > 1.0


def test_fig8_memory_traffic_normalisation(context):
    series = fig8.run_fig8(context)
    for row in series.values():
        assert set(row) == {"reads", "writes", "total"}
        assert row["reads"] <= 1.05            # DRAM cache filters reads
        assert row["writes"] == pytest.approx(1.0, abs=0.35)  # write-through keeps writes
    assert "average" in series


def test_fig9_inter_socket_traffic(context):
    series = fig9.run_fig9(context)
    for row in series.values():
        assert set(row) == {"snoopy", "full-dir", "c3d", "c3d-full-dir"}
        # Snoopy broadcasts every miss, so it always produces the most traffic.
        assert row["snoopy"] >= row["c3d-full-dir"]
    # C3D generates less traffic than the baseline on average (paper: -35.9%).
    assert series["average"]["c3d"] < 1.1


def test_fig10_dram_latency_sensitivity(context):
    series = fig10.run_fig10(context, workloads=["streamcluster"], latencies=(30.0, 50.0))
    assert set(series) == {"30ns", "50ns"}
    for row in series.values():
        assert set(row) == set(fig10.SENSITIVITY_DESIGNS)
    # A faster DRAM cache can only help C3D.
    assert series["30ns"]["c3d"] >= series["50ns"]["c3d"] - 0.02


def test_fig11_inter_socket_latency_sensitivity(context):
    series = fig11.run_fig11(context, workloads=["streamcluster"], hop_latencies=(5.0, 30.0))
    assert set(series) == {"5ns", "30ns"}
    # C3D's advantage grows with the inter-socket latency (it removes that cost).
    assert series["30ns"]["c3d"] >= series["5ns"]["c3d"] - 0.02


def test_broadcast_filter_experiment(context):
    series = broadcast_filter.run_broadcast_filter(context, workloads=["streamcluster"])
    assert set(series) == {"streamcluster", "mcf"}
    for row in series.values():
        assert 0.0 <= row["broadcasts_elided"] <= 1.0
        assert not math.isnan(row["traffic_vs_plain_c3d"])
    # mcf is single threaded: essentially all broadcasts are elided.
    assert series["mcf"]["broadcasts_elided"] > 0.9


def test_directory_cost_matches_paper():
    table = directory_cost.storage_cost_table()
    assert table["256MB cache, 2x sparse"] == pytest.approx(32.0, rel=0.01)
    assert table["1GB cache, 2x sparse"] == pytest.approx(128.0, rel=0.01)
    occupancy = directory_cost.run_directory_occupancy(
        ExperimentSettings(scale=4096, accesses_per_thread=150,
                           warmup_accesses_per_thread=0, num_sockets=2, cores_per_socket=2),
        workload="streamcluster",
    )
    assert occupancy["full-dir"] > occupancy["c3d"]

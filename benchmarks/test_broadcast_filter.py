"""Benchmark: regenerate the section VI-C broadcast-filtering study."""

from conftest import run_once

from repro.experiments.broadcast_filter import (
    format_broadcast_filter,
    run_broadcast_filter,
)


def test_broadcast_filter_study(benchmark, context):
    series = run_once(
        benchmark,
        lambda: run_broadcast_filter(context, workloads=["facesim", "cassandra"]),
    )
    print("\n" + format_broadcast_filter(series))

    benchmark.extra_info.update(
        {f"elided[{name}]": row["broadcasts_elided"] for name, row in series.items()}
    )

    # Paper: single-threaded mcf loses essentially all broadcasts; the
    # multi-threaded workloads only a small fraction; overall traffic barely
    # changes either way because data packets dominate.
    assert series["mcf"]["broadcasts_elided"] > 0.9
    for name in ("facesim", "cassandra"):
        assert series[name]["broadcasts_elided"] < 0.6
        assert 0.8 < series[name]["traffic_vs_plain_c3d"] < 1.1

#!/usr/bin/env python3
"""Evaluate C3D's TLB-based broadcast filter (paper section IV-D / VI-C).

C3D broadcasts invalidations when a write misses on a block the directory
does not track.  For thread-private data those broadcasts are unnecessary, so
the paper adds a page-table/TLB classifier that marks pages private until a
second thread touches them, and skips the broadcast for private pages.

This example runs C3D with and without the filter on a multi-threaded
workload (facesim) and on the single-threaded SPEC workload mcf, reproducing
the paper's conclusion: the filter removes essentially *all* broadcasts for
mcf but has a small effect on overall traffic because data packets dominate.

Run with::

    python examples/broadcast_filtering.py
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (makes src/ importable without PYTHONPATH)

from repro.api import ExperimentContext, ExperimentSettings, format_table


def run_pair(context: ExperimentContext, workload: str):
    plain = context.run(workload, "c3d")
    filtered_config = context.make_config("c3d", broadcast_filter=True)
    filtered = context.run(workload, "c3d", config=filtered_config)
    return plain, filtered


def main() -> None:
    settings = ExperimentSettings(
        scale=1024, accesses_per_thread=1500, warmup_accesses_per_thread=500
    )
    context = ExperimentContext(settings)

    rows = []
    for workload in ("facesim", "cassandra", "mcf"):
        plain, filtered = run_pair(context, workload)
        potential = filtered.stats.broadcasts + filtered.stats.broadcasts_elided
        elided_fraction = filtered.stats.broadcasts_elided / potential if potential else 0.0
        traffic_ratio = (
            filtered.inter_socket_bytes / plain.inter_socket_bytes
            if plain.inter_socket_bytes
            else float("nan")
        )
        rows.append(
            [
                workload,
                plain.stats.broadcasts,
                filtered.stats.broadcasts,
                f"{elided_fraction * 100:.1f}%",
                f"{traffic_ratio:.3f}",
            ]
        )

    print(
        format_table(
            ["workload", "broadcasts (plain)", "broadcasts (filtered)",
             "broadcasts elided", "traffic vs plain C3D"],
            rows,
            title="Section VI-C: TLB private/shared classification",
        )
    )
    print(
        "\nmcf is single threaded, so every page stays private and its broadcasts\n"
        "disappear entirely; the multi-threaded workloads share most pages, so only\n"
        "a small fraction of broadcasts is filtered -- and either way the total\n"
        "inter-socket traffic barely moves because reads (data packets) dominate.\n"
        "This is why the paper calls the optimisation useful but non-essential."
    )


if __name__ == "__main__":
    main()

"""Section VI-C: reducing broadcast traffic with the TLB private/shared filter.

The paper evaluates the page-classification optimisation of section IV-D in
two settings:

* on the multi-threaded workloads, filtering broadcasts for private pages
  removes only ~5 % of the broadcast messages (and a negligible share of the
  overall inter-socket bytes, which are dominated by data packets);
* on the single-threaded, memory-intensive ``mcf``, every page stays
  thread-private, so *all* of C3D's write-related broadcast traffic is
  eliminated -- although the total traffic change is still small because
  reads dominate.

The experiment runs C3D with and without ``broadcast_filter`` and reports
the fraction of broadcasts elided plus the change in inter-socket bytes.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..stats.report import format_series
from .common import ExperimentContext, ExperimentSettings

__all__ = ["run_broadcast_filter", "format_broadcast_filter", "main"]


def run_broadcast_filter(
    context: ExperimentContext,
    *,
    workloads: Optional[Iterable[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Measure the effect of the TLB broadcast filter on C3D.

    Returns, per workload and for the single-threaded ``mcf``: the fraction
    of potential broadcasts elided and the inter-socket traffic of filtered
    C3D relative to plain C3D.
    """
    workload_list = list(workloads) if workloads is not None else context.workloads()

    series: Dict[str, Dict[str, float]] = {}
    for workload in workload_list + ["mcf"]:
        plain = context.run(workload, "c3d")
        filtered_config = context.make_config("c3d", broadcast_filter=True)
        filtered = context.run(workload, "c3d", config=filtered_config)
        broadcasts = filtered.stats.broadcasts
        elided = filtered.stats.broadcasts_elided
        potential = broadcasts + elided
        series[workload] = {
            "broadcasts_elided": elided / potential if potential else 0.0,
            "traffic_vs_plain_c3d": (
                filtered.inter_socket_bytes / plain.inter_socket_bytes
                if plain.inter_socket_bytes
                else float("nan")
            ),
        }
    return series


def format_broadcast_filter(series: Dict[str, Dict[str, float]]) -> str:
    return format_series(
        series,
        title="Section VI-C: TLB broadcast filtering (C3D + filter vs. plain C3D)",
    )


def main(settings: Optional[ExperimentSettings] = None) -> Dict[str, Dict[str, float]]:
    context = ExperimentContext(settings)
    series = run_broadcast_filter(context)
    print(format_broadcast_filter(series))
    return series


if __name__ == "__main__":  # pragma: no cover - manual invocation
    main()

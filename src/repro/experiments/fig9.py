"""Fig. 9: inter-socket traffic, normalised to the no-DRAM-cache baseline.

The paper reports the bytes crossing the inter-socket links for each coherent
DRAM-cache design relative to the baseline: C3D generates 35.9 % less traffic
than the baseline (the DRAM caches filter remote memory reads), and only
about 5 % more than the full-directory designs (the broadcast invalidations
are small control packets, while the bulk of the traffic is data).
Snoopy is far worse because every miss broadcasts snoops to every socket.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..stats.report import format_series
from .common import DRAM_CACHE_DESIGNS, ExperimentContext, ExperimentSettings

__all__ = ["PAPER_C3D_REDUCTION", "run_fig9", "format_fig9", "main"]

#: Paper: C3D reduces inter-socket traffic by 35.9 % on average.
PAPER_C3D_REDUCTION = 0.359


def run_fig9(context: ExperimentContext) -> Dict[str, Dict[str, float]]:
    """Measure normalised inter-socket bytes per design per workload."""
    series: Dict[str, Dict[str, float]] = {}
    for workload in context.workloads():
        baseline_bytes = context.run(workload, "baseline").inter_socket_bytes or 1
        series[workload] = {
            design: context.run(workload, design).inter_socket_bytes / baseline_bytes
            for design in DRAM_CACHE_DESIGNS
        }
    series["average"] = {
        design: sum(row[design] for name, row in series.items() if name != "average")
        / len(series)
        for design in DRAM_CACHE_DESIGNS
    }
    return series


def format_fig9(series: Dict[str, Dict[str, float]]) -> str:
    return format_series(
        series, title="Fig. 9: inter-socket traffic (normalised to no DRAM cache)"
    )


def main(settings: Optional[ExperimentSettings] = None) -> Dict[str, Dict[str, float]]:
    context = ExperimentContext(settings)
    series = run_fig9(context)
    print(format_fig9(series))
    return series


if __name__ == "__main__":  # pragma: no cover - manual invocation
    main()

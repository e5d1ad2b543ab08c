"""Fig. 6: 4-socket (8 cores/socket) performance comparison.

Speedup of the four coherent-DRAM-cache designs (snoopy, full-dir, c3d,
c3d-full-dir) over the no-DRAM-cache baseline, per workload, on the
quad-socket machine with 1 GB of DRAM cache per socket.

Paper shape to reproduce: C3D improves every workload (6.4-50.7 %, 19.2 % on
average, with streamcluster the big winner); snoopy slows most workloads
down; full-dir hurts the communication-heavy PARSEC workloads but helps the
server workloads; c3d-full-dir is only marginally better than c3d
(broadcasts are cheap).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..stats.report import format_series, geometric_mean
from .common import DRAM_CACHE_DESIGNS, ExperimentContext, ExperimentSettings, speedup

__all__ = ["PAPER_C3D_SPEEDUP_RANGE", "run_fig6", "format_fig6", "main"]

#: The paper's headline C3D speedup range / average for the 4-socket machine.
PAPER_C3D_SPEEDUP_RANGE = (1.064, 1.507)
PAPER_C3D_SPEEDUP_AVG = 1.192


def run_fig6(context: ExperimentContext) -> Dict[str, Dict[str, float]]:
    """Measure per-workload speedups over the baseline for each design."""
    series: Dict[str, Dict[str, float]] = {}
    for workload in context.workloads():
        baseline = context.run(workload, "baseline")
        series[workload] = {
            design: speedup(baseline, context.run(workload, design))
            for design in DRAM_CACHE_DESIGNS
        }
    series["geomean"] = {
        design: geometric_mean(
            row[design] for name, row in series.items() if name != "geomean"
        )
        for design in DRAM_CACHE_DESIGNS
    }
    return series


def format_fig6(series: Dict[str, Dict[str, float]]) -> str:
    return format_series(
        series, title="Fig. 6: 4-socket speedup over the no-DRAM-cache baseline"
    )


def main(settings: Optional[ExperimentSettings] = None) -> Dict[str, Dict[str, float]]:
    context = ExperimentContext(settings)
    series = run_fig6(context)
    print(format_fig6(series))
    return series


if __name__ == "__main__":  # pragma: no cover - manual invocation
    main()

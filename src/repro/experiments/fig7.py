"""Fig. 7: 2-socket (16 cores/socket) performance comparison.

Same comparison as Fig. 6 on the dual-socket machine with a point-to-point
interconnect.  The paper reports slightly *higher* C3D speedups than in the
4-socket system (24.1 % average, within 3 % of the idealised c3d-full-dir)
because 16 cores sharing one LLC miss more often, giving the DRAM cache more
opportunity.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..stats.report import format_series, geometric_mean
from .common import DRAM_CACHE_DESIGNS, ExperimentContext, ExperimentSettings, speedup

__all__ = ["PAPER_C3D_SPEEDUP_AVG", "run_fig7", "format_fig7", "main"]

PAPER_C3D_SPEEDUP_AVG = 1.241


def run_fig7(context: ExperimentContext) -> Dict[str, Dict[str, float]]:
    """Measure per-workload speedups on the 2-socket machine."""
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


def format_fig7(series: Dict[str, Dict[str, float]]) -> str:
    return format_series(
        series, title="Fig. 7: 2-socket speedup over the no-DRAM-cache baseline"
    )


def main(settings: Optional[ExperimentSettings] = None) -> Dict[str, Dict[str, float]]:
    if settings is None:
        settings = ExperimentSettings().dual_socket()
    context = ExperimentContext(settings)
    series = run_fig7(context)
    print(format_fig7(series))
    return series


if __name__ == "__main__":  # pragma: no cover - manual invocation
    main()

"""Fig. 2: NUMA bottleneck analysis.

The paper idealises one machine parameter at a time on the baseline
(no-DRAM-cache) quad-socket system and reports the speedup over the
unmodified baseline:

* ``0_qpi_lat``      -- zero inter-socket communication latency,
* ``inf_mem_bw``     -- infinite memory bandwidth,
* ``inf_qpi_bw``     -- infinite inter-socket bandwidth,
* ``inf_mem_bw + inf_qpi_bw`` -- both bandwidth idealisations together.

The paper's finding (and this reproduction's expected shape): the latency
idealisation yields 14-60 % speedups while the bandwidth idealisations yield
almost nothing, so inter-socket latency -- not bandwidth -- is the NUMA
bottleneck.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..stats.report import format_series, geometric_mean
from .common import ExperimentContext, ExperimentSettings, speedup

__all__ = ["IDEALISATIONS", "run_fig2", "format_fig2", "main"]

#: The idealised configurations, in the paper's legend order.
IDEALISATIONS = ("0_qpi_lat", "inf_mem_bw", "inf_qpi_bw", "inf_mem_bw + inf_qpi_bw")


def _idealisation_overrides(name: str) -> Dict[str, bool]:
    return {
        "0_qpi_lat": dict(zero_qpi_latency=True),
        "inf_mem_bw": dict(infinite_memory_bandwidth=True),
        "inf_qpi_bw": dict(infinite_qpi_bandwidth=True),
        "inf_mem_bw + inf_qpi_bw": dict(
            infinite_memory_bandwidth=True, infinite_qpi_bandwidth=True
        ),
    }[name]


def run_fig2(context: ExperimentContext) -> Dict[str, Dict[str, float]]:
    """Measure idealisation speedups; returns {workload: {idealisation: speedup}}."""
    series: Dict[str, Dict[str, float]] = {}
    for workload in context.workloads():
        baseline = context.run(workload, "baseline")
        row: Dict[str, float] = {}
        for idealisation in IDEALISATIONS:
            config = context.make_config("baseline").with_idealisation(
                **_idealisation_overrides(idealisation)
            )
            record = context.run(
                workload, "baseline", config=config,
            )
            row[idealisation] = speedup(baseline, record)
        series[workload] = row
    series["geomean"] = {
        idealisation: geometric_mean(row[idealisation] for row in series.values() if idealisation in row)
        for idealisation in IDEALISATIONS
    }
    return series


def format_fig2(series: Dict[str, Dict[str, float]]) -> str:
    return format_series(series, title="Fig. 2: NUMA bottleneck analysis (speedup vs. baseline)")


def main(settings: Optional[ExperimentSettings] = None) -> Dict[str, Dict[str, float]]:
    context = ExperimentContext(settings)
    series = run_fig2(context)
    print(format_fig2(series))
    return series


if __name__ == "__main__":  # pragma: no cover - manual invocation
    main()

"""Fig. 10: sensitivity to DRAM-cache access latency (30 / 40 / 50 ns).

The paper varies the DRAM-cache latency and reports the average speedup of
snoopy, full-dir and c3d over the baseline.  Even when the DRAM cache is as
slow as main memory (50 ns), C3D retains a 17.3 % gain because its benefit
comes mostly from avoiding the inter-socket trip, not from the device being
faster; a faster cache (30 ns) pushes the gain to ~24 %.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Optional, Sequence

from ..stats.report import format_series, geometric_mean
from .common import ExperimentContext, ExperimentSettings, speedup

__all__ = ["LATENCY_POINTS_NS", "SENSITIVITY_DESIGNS", "run_fig10", "format_fig10", "main"]

LATENCY_POINTS_NS: Sequence[float] = (30.0, 40.0, 50.0)
SENSITIVITY_DESIGNS = ("snoopy", "full-dir", "c3d")


def run_fig10(
    context: ExperimentContext,
    *,
    workloads: Optional[Iterable[str]] = None,
    latencies: Sequence[float] = LATENCY_POINTS_NS,
) -> Dict[str, Dict[str, float]]:
    """Average speedup of each design at each DRAM-cache latency.

    Returns ``{"30ns": {design: speedup}, "40ns": ..., "50ns": ...}``.
    """
    workload_list = list(workloads) if workloads is not None else context.workloads()
    series: Dict[str, Dict[str, float]] = {}

    for latency in latencies:
        per_design: Dict[str, list] = {design: [] for design in SENSITIVITY_DESIGNS}
        for workload in workload_list:
            baseline = context.run(workload, "baseline")
            for design in SENSITIVITY_DESIGNS:
                config = context.make_config(design)
                config = replace(
                    config, dram_cache=replace(config.dram_cache, latency_ns=latency)
                )
                record = context.run(workload, design, config=config)
                per_design[design].append(speedup(baseline, record))
        series[f"{latency:.0f}ns"] = {
            design: geometric_mean(values) for design, values in per_design.items()
        }
    return series


def format_fig10(series: Dict[str, Dict[str, float]]) -> str:
    return format_series(
        series, title="Fig. 10: speedup vs. DRAM-cache latency (geomean over workloads)"
    )


def main(settings: Optional[ExperimentSettings] = None) -> Dict[str, Dict[str, float]]:
    context = ExperimentContext(settings)
    series = run_fig10(context)
    print(format_fig10(series))
    return series


if __name__ == "__main__":  # pragma: no cover - manual invocation
    main()

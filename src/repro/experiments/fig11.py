"""Fig. 11: sensitivity to inter-socket (QPI) latency (5 / 10 / 20 / 30 ns per hop).

The paper varies the per-hop inter-socket latency and reports the average
speedup of snoopy, full-dir and c3d over the baseline.  Even at an
unrealistically fast 5 ns per hop C3D keeps a ~10 % gain, and its advantage
grows with the inter-socket latency because that is exactly the cost it
removes from the critical path; it outperforms snoopy and full-dir at every
point.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Optional, Sequence

from ..stats.report import format_series, geometric_mean
from .common import ExperimentContext, ExperimentSettings, speedup
from .fig10 import SENSITIVITY_DESIGNS

__all__ = ["HOP_LATENCY_POINTS_NS", "run_fig11", "format_fig11", "main"]

HOP_LATENCY_POINTS_NS: Sequence[float] = (5.0, 10.0, 20.0, 30.0)


def run_fig11(
    context: ExperimentContext,
    *,
    workloads: Optional[Iterable[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Average speedup of each design at each inter-socket hop latency of
    :data:`HOP_LATENCY_POINTS_NS`."""
    workload_list = list(workloads) if workloads is not None else context.workloads()
    series: Dict[str, Dict[str, float]] = {}

    for hop_latency in HOP_LATENCY_POINTS_NS:
        per_design: Dict[str, list] = {design: [] for design in SENSITIVITY_DESIGNS}
        for workload in workload_list:
            baseline_config = context.make_config("baseline")
            baseline_config = replace(
                baseline_config,
                interconnect=replace(baseline_config.interconnect, hop_latency_ns=hop_latency),
            )
            baseline = context.run(workload, "baseline", config=baseline_config)
            for design in SENSITIVITY_DESIGNS:
                config = context.make_config(design)
                config = replace(
                    config,
                    interconnect=replace(config.interconnect, hop_latency_ns=hop_latency),
                )
                record = context.run(workload, design, config=config)
                per_design[design].append(speedup(baseline, record))
        series[f"{hop_latency:.0f}ns"] = {
            design: geometric_mean(values) for design, values in per_design.items()
        }
    return series


def format_fig11(series: Dict[str, Dict[str, float]]) -> str:
    return format_series(
        series, title="Fig. 11: speedup vs. inter-socket latency (geomean over workloads)"
    )


def main(settings: Optional[ExperimentSettings] = None) -> Dict[str, Dict[str, float]]:
    context = ExperimentContext(settings)
    series = run_fig11(context)
    print(format_fig11(series))
    return series


if __name__ == "__main__":  # pragma: no cover - manual invocation
    main()

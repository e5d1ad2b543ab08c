"""Fig. 3: memory accesses as a function of cache capacity.

The paper grows the (single) cache from 16 MB to 64 MB / 256 MB / 1 GB and
reports main-memory accesses normalised to the 16 MB configuration: even
workloads with huge datasets have significant temporal locality that only
very large (DRAM-cache-sized) caches can capture -- the 1 GB point removes
38.6-45.5 % of memory accesses on average.

In the reproduction the sweep enlarges the per-socket LLC of the baseline
(no DRAM cache) machine, which is exactly the limit study the figure makes:
"what if on-chip capacity were this large?".  Capacities are scaled by the
experiment's scale factor like everything else.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from ..stats.report import format_series
from .common import ExperimentContext, ExperimentSettings

__all__ = ["CACHE_POINTS_MB", "run_fig3", "format_fig3", "main"]

#: Cache capacities swept by the figure (paper scale, MB).
CACHE_POINTS_MB = (16, 64, 256, 1024)


def run_fig3(context: ExperimentContext) -> Dict[str, Dict[str, float]]:
    """Measure memory accesses vs. cache size, normalised to the 16 MB point.

    Returns ``{workload: {"64MB": ratio, "256MB": ratio, "1GB": ratio}}``.
    """
    series: Dict[str, Dict[str, float]] = {}
    scale = context.settings.scale

    for workload in context.workloads():
        accesses: Dict[int, float] = {}
        for capacity_mb in CACHE_POINTS_MB:
            base_config = context.make_config("baseline")
            llc = replace(
                base_config.llc,
                size_bytes=max(64 * 1024, capacity_mb * 1024 * 1024 // scale),
            )
            config = replace(base_config, llc=llc)
            record = context.run(workload, "baseline", config=config)
            accesses[capacity_mb] = float(record.stats.memory_accesses)
        baseline_accesses = accesses[CACHE_POINTS_MB[0]] or 1.0
        series[workload] = {
            _label(capacity_mb): accesses[capacity_mb] / baseline_accesses
            for capacity_mb in CACHE_POINTS_MB[1:]
        }

    averages = {}
    for capacity_mb in CACHE_POINTS_MB[1:]:
        label = _label(capacity_mb)
        values = [row[label] for row in series.values()]
        averages[label] = sum(values) / len(values)
    series["average"] = averages
    return series


def _label(capacity_mb: int) -> str:
    return "1GB" if capacity_mb >= 1024 else f"{capacity_mb}MB"


def format_fig3(series: Dict[str, Dict[str, float]]) -> str:
    return format_series(
        series,
        title="Fig. 3: memory accesses vs. cache size (normalised to 16MB)",
    )


def main(settings: Optional[ExperimentSettings] = None) -> Dict[str, Dict[str, float]]:
    context = ExperimentContext(settings)
    series = run_fig3(context)
    print(format_fig3(series))
    return series


if __name__ == "__main__":  # pragma: no cover - manual invocation
    main()

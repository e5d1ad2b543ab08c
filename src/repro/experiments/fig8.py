"""Fig. 8: C3D memory traffic, normalised to the no-DRAM-cache baseline.

For the 4-socket machine with 1 GB DRAM caches, the paper reports C3D's
main-memory accesses (reads, writes and total) relative to the baseline:
reads drop by up to 99 % (70.9 % on average) because the private DRAM caches
filter them; writes are unchanged because C3D's caches are write-through
(every dirty LLC eviction still reaches memory); total traffic drops by 49 %
on average.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..stats.report import format_series
from .common import ExperimentContext, ExperimentSettings

__all__ = ["PAPER_AVERAGES", "run_fig8", "format_fig8", "main"]

#: Paper averages: normalised reads / writes / total for C3D.
PAPER_AVERAGES = {"reads": 1 - 0.709, "writes": 1.0, "total": 1 - 0.49}


def run_fig8(context: ExperimentContext) -> Dict[str, Dict[str, float]]:
    """Measure C3D's memory traffic relative to the baseline.

    Returns ``{workload: {"reads": r, "writes": w, "total": t}}`` with every
    value normalised to the baseline design's count.
    """
    series: Dict[str, Dict[str, float]] = {}
    for workload in context.workloads():
        baseline = context.run(workload, "baseline").stats
        c3d = context.run(workload, "c3d").stats
        series[workload] = {
            "reads": _ratio(c3d.memory_reads, baseline.memory_reads),
            "writes": _ratio(c3d.memory_writes, baseline.memory_writes),
            "total": _ratio(c3d.memory_accesses, baseline.memory_accesses),
        }
    series["average"] = {
        key: sum(row[key] for name, row in series.items() if name != "average") / len(series)
        for key in ("reads", "writes", "total")
    }
    return series


def _ratio(value: float, baseline: float) -> float:
    return value / baseline if baseline else float("nan")


def format_fig8(series: Dict[str, Dict[str, float]]) -> str:
    return format_series(
        series, title="Fig. 8: C3D memory traffic (normalised to no DRAM cache)"
    )


def main(settings: Optional[ExperimentSettings] = None) -> Dict[str, Dict[str, float]]:
    context = ExperimentContext(settings)
    series = run_fig8(context)
    print(format_fig8(series))
    return series


if __name__ == "__main__":  # pragma: no cover - manual invocation
    main()

"""Table I: fraction of memory accesses satisfied by a remote socket's memory.

The paper measures, on the baseline (no DRAM cache) quad-socket machine with
the first-touch mapping policy, how many main-memory accesses are served by a
socket other than the requester: ~73-77 % for most workloads (61.6 % for
tunkrank), i.e. only ~26.5 % of accesses enjoy local memory.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..stats.report import format_table
from .common import ExperimentContext, ExperimentSettings

__all__ = ["PAPER_TABLE1", "run_table1", "format_table1", "main"]

#: Remote-memory access fractions reported by the paper (Table I).
PAPER_TABLE1: Dict[str, float] = {
    "facesim": 0.766,
    "streamcluster": 0.736,
    "freqmine": 0.746,
    "fluidanimate": 0.752,
    "canneal": 0.750,
    "tunkrank": 0.616,
    "nutch": 0.752,
    "cassandra": 0.752,
    "classification": 0.752,
}


def run_table1(context: ExperimentContext) -> Dict[str, float]:
    """Measure the remote-memory access fraction per workload.

    Returns ``{workload: remote_fraction}`` using the baseline design.
    """
    fractions: Dict[str, float] = {}
    for workload in context.workloads():
        record = context.run(workload, "baseline")
        fractions[workload] = record.stats.remote_memory_fraction()
    return fractions


def format_table1(measured: Dict[str, float]) -> str:
    """Render measured-vs-paper rows in the paper's layout."""
    rows = []
    for workload, fraction in measured.items():
        paper = PAPER_TABLE1.get(workload)
        rows.append(
            [
                workload,
                f"{fraction * 100:.1f}%",
                f"{paper * 100:.1f}%" if paper is not None else "-",
            ]
        )
    average = sum(measured.values()) / max(1, len(measured))
    paper_avg = sum(PAPER_TABLE1.values()) / len(PAPER_TABLE1)
    rows.append(["average", f"{average * 100:.1f}%", f"{paper_avg * 100:.1f}%"])
    return format_table(
        ["workload", "measured remote", "paper remote"],
        rows,
        title="Table I: fraction of memory accesses satisfied by remote memory",
    )


def main(settings: Optional[ExperimentSettings] = None) -> Dict[str, float]:
    """Run the experiment and print the table (module entry point)."""
    context = ExperimentContext(settings)
    measured = run_table1(context)
    print(format_table1(measured))
    return measured


if __name__ == "__main__":  # pragma: no cover - manual invocation
    main()

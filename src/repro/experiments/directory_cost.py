"""Section III-B: global directory storage costs (the motivation for C3D's
non-inclusive directory).

The paper's arithmetic: a minimally provisioned (1x) sparse directory for a
256 MB DRAM cache needs 16 MB of storage per socket; at the 2x provisioning
of AMD's Magny-Cours it becomes 32 MB, and a 1 GB DRAM cache needs a
whopping 128 MB per socket.  C3D avoids tracking DRAM-cache blocks entirely,
so its directory remains sized for the 16 MB LLC.

This module reproduces those numbers with
:class:`~repro.coherence.directory.DirectoryCostModel` and also reports the
*measured* peak directory occupancy of a C3D run vs. a full-dir run, showing
the same orders-of-magnitude gap at reproduction scale.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..coherence.directory import DirectoryCostModel
from ..stats.report import format_table
from .common import ExperimentContext, ExperimentSettings

__all__ = ["storage_cost_table", "run_directory_occupancy", "main"]

MB = 2**20


def storage_cost_table(num_sockets: int = 4) -> Dict[str, float]:
    """The paper's sparse-directory storage arithmetic (MB per socket)."""
    model_1x = DirectoryCostModel(num_sockets=num_sockets, provisioning=1.0)
    model_2x = DirectoryCostModel(num_sockets=num_sockets, provisioning=2.0)
    return {
        "256MB cache, 1x sparse": model_1x.storage_megabytes(256 * MB),
        "256MB cache, 2x sparse": model_2x.storage_megabytes(256 * MB),
        "1GB cache, 2x sparse": model_2x.storage_megabytes(1024 * MB),
        "16MB LLC, 2x sparse (C3D)": model_2x.storage_megabytes(16 * MB),
    }


def run_directory_occupancy(
    settings: ExperimentSettings, workload: str = "facesim"
) -> Dict[str, int]:
    """Measured peak directory entries (all slices): full-dir vs. C3D.

    The full-dir design must track every DRAM-cache-resident block, so its
    peak entry count is close to the aggregate DRAM-cache occupancy; C3D only
    tracks on-chip blocks, so its peak is orders of magnitude smaller.
    """
    from ..system.numa_system import NumaSystem
    from ..system.simulator import Simulator
    from ..workloads.registry import make_workload

    context = ExperimentContext(settings)
    occupancy: Dict[str, int] = {}
    for design in ("full-dir", "c3d"):
        system = NumaSystem(context.make_config(design))
        wl = make_workload(
            workload,
            scale=settings.scale,
            accesses_per_thread=settings.trace_length,
            num_threads=settings.total_cores,
        )
        Simulator(system, wl).run(
            warmup_accesses_per_core=settings.warmup_accesses_per_thread,
            prewarm=settings.prewarm,
        )
        occupancy[design] = sum(directory.peak_entries for directory in system.directories)
    return occupancy


def main(settings: Optional[ExperimentSettings] = None) -> Dict[str, float]:
    table = storage_cost_table()
    rows = [[name, f"{value:.1f} MB"] for name, value in table.items()]
    print(
        format_table(
            ["configuration", "directory storage per socket"],
            rows,
            title="Section III-B: sparse directory storage costs",
        )
    )
    return table


if __name__ == "__main__":  # pragma: no cover - manual invocation
    main()

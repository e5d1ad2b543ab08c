"""Average-memory-access-time (AMAT) decomposition helpers.

The paper's argument is fundamentally an AMAT argument: private DRAM caches
win because a local DRAM-cache hit (~40 ns) is much cheaper than a remote
memory access (~90-130 ns), and C3D wins over the naive coherent designs
because it never puts a *remote* DRAM-cache access (~100+ ns) on the read
critical path.  :func:`amat_breakdown` reconstructs the decomposition from a
run's statistics so experiments and examples can print it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .counters import SimulationStats

__all__ = ["AMATBreakdown", "amat_breakdown"]


@dataclass
class AMATBreakdown:
    """Where demand reads were served and the resulting mean latency."""

    amat_ns: float
    total_reads: int
    fractions: Dict[str, float]

    def format(self) -> str:
        """Multi-line human-readable rendering."""
        lines = [f"AMAT: {self.amat_ns:.1f} ns over {self.total_reads} demand reads"]
        for level, fraction in sorted(self.fractions.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {level:<22s} {fraction * 100:5.1f} %")
        return "\n".join(lines)


def amat_breakdown(stats: SimulationStats) -> AMATBreakdown:
    """Build an :class:`AMATBreakdown` from run statistics."""
    reads = max(1, stats.reads)
    serve_counts = {
        "l1": stats.l1_hits,
        "llc": stats.llc_hits,
        "local_dram_cache": stats.served_local_dram_cache,
        "local_memory": stats.served_local_memory,
        "remote_llc": stats.served_remote_llc,
        "remote_dram_cache": stats.served_remote_dram_cache,
        "remote_memory": stats.served_remote_memory,
        "store_forward": stats.store_forward_hits,
    }
    total = sum(serve_counts.values())
    denominator = max(1, total)
    fractions = {level: count / denominator for level, count in serve_counts.items()}
    return AMATBreakdown(
        amat_ns=stats.amat_ns(), total_reads=reads, fractions=fractions
    )

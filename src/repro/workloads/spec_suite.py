"""Single-threaded SPEC CPU2006 workload model (mcf).

Section VI-C evaluates the TLB-based broadcast filter on the memory-intensive
single-threaded ``mcf`` benchmark: because a single-threaded workload has no
shared data (beyond user/kernel interaction), every page stays classified
thread-private and all of C3D's write-related broadcast traffic can be
elided.  The model therefore puts almost all accesses into the thread's
private region, with a small hot region standing in for kernel/user shared
pages.
"""

from __future__ import annotations

from typing import Dict

from .synthetic import WorkloadSpec

__all__ = ["SPEC_SPECS"]

MB = 2**20
GB = 2**30

SPEC_SPECS: Dict[str, WorkloadSpec] = {
    "mcf": WorkloadSpec(
        name="mcf",
        num_threads=1,
        private_bytes_per_thread=int(1.7 * GB),
        hot_shared_bytes=4 * MB,
        warm_shared_bytes=0,
        cold_shared_bytes=0,
        p_private=0.96,
        p_hot=0.04,
        p_warm=0.0,
        p_cold=0.0,
        write_fraction_private=0.30,
        write_fraction_hot=0.10,
        write_fraction_warm=0.0,
        write_fraction_cold=0.0,
        best_policy="ft2",
        description="SPEC CPU2006 429.mcf; single-threaded vehicle scheduling "
        "with a ~1.7 GB pointer-heavy private working set.",
    ),
}

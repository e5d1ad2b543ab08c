"""PARSEC 3.0 workload models (native inputs, >100 MB working sets).

The paper evaluates the five PARSEC benchmarks whose native working sets
exceed 100 MB: facesim, streamcluster, fluidanimate, canneal and freqmine.
Each is modelled by a :class:`~repro.workloads.synthetic.WorkloadSpec` whose
parameters encode the published characteristics that drive the evaluation:

* all of them have large *shared* working sets with little memory-affinity,
  so ~75 % of their memory accesses land on remote sockets under first-touch
  placement (Table I);
* streamcluster's working set fits entirely within the per-socket 1 GB DRAM
  cache, which is why it enjoys the largest C3D speedup (50.7 %) and a 98 %
  reduction in memory traffic;
* facesim, fluidanimate and freqmine have considerable inter-thread
  communication (writes to shared data), which is what exposes the dirty
  remote DRAM-cache pathology and makes the full-dir design *lose*
  performance on them;
* canneal performs pseudo-random accesses over a multi-GB graph, so even a
  1 GB cache captures only part of its traffic.
"""

from __future__ import annotations

from typing import Dict

from .synthetic import WorkloadSpec

__all__ = ["PARSEC_SPECS"]

MB = 2**20
GB = 2**30

PARSEC_SPECS: Dict[str, WorkloadSpec] = {
    "facesim": WorkloadSpec(
        name="facesim",
        private_bytes_per_thread=1 * MB,
        hot_shared_bytes=160 * MB,
        warm_shared_bytes=int(1.6 * GB),
        cold_shared_bytes=256 * MB,
        p_private=0.15,
        p_hot=0.32,
        p_warm=0.41,
        p_cold=0.12,
        write_fraction_private=0.25,
        write_fraction_hot=0.50,
        write_fraction_warm=0.12,
        write_fraction_cold=0.05,
        best_policy="ft2",
        description="Physics simulation of a human face; iterative solver over "
        "a large shared mesh with neighbour communication each frame.",
    ),
    "streamcluster": WorkloadSpec(
        name="streamcluster",
        private_bytes_per_thread=1 * MB,
        hot_shared_bytes=32 * MB,
        warm_shared_bytes=700 * MB,
        cold_shared_bytes=0,
        p_private=0.12,
        p_hot=0.10,
        p_warm=0.78,
        p_cold=0.0,
        write_fraction_private=0.25,
        write_fraction_hot=0.30,
        write_fraction_warm=0.05,
        write_fraction_cold=0.0,
        best_policy="ft2",
        description="Online clustering of streamed points; repeatedly scans a "
        "shared point set that fits within a 1 GB DRAM cache.",
    ),
    "fluidanimate": WorkloadSpec(
        name="fluidanimate",
        private_bytes_per_thread=1 * MB,
        hot_shared_bytes=192 * MB,
        warm_shared_bytes=int(1.2 * GB),
        cold_shared_bytes=128 * MB,
        p_private=0.14,
        p_hot=0.36,
        p_warm=0.36,
        p_cold=0.14,
        write_fraction_private=0.25,
        write_fraction_hot=0.55,
        write_fraction_warm=0.15,
        write_fraction_cold=0.05,
        best_policy="ft2",
        description="Smoothed-particle hydrodynamics; grid cells exchanged "
        "between neighbouring threads every time step (high communication).",
    ),
    "canneal": WorkloadSpec(
        name="canneal",
        private_bytes_per_thread=1 * MB,
        hot_shared_bytes=16 * MB,
        warm_shared_bytes=int(1.5 * GB),
        cold_shared_bytes=2 * GB,
        p_private=0.12,
        p_hot=0.05,
        p_warm=0.41,
        p_cold=0.42,
        write_fraction_private=0.25,
        write_fraction_hot=0.20,
        write_fraction_warm=0.08,
        write_fraction_cold=0.04,
        best_policy="interleave",
        description="Simulated-annealing chip routing; pseudo-random pointer "
        "chasing over a netlist far larger than any cache.",
    ),
    "freqmine": WorkloadSpec(
        name="freqmine",
        private_bytes_per_thread=2 * MB,
        hot_shared_bytes=128 * MB,
        warm_shared_bytes=int(1.4 * GB),
        cold_shared_bytes=256 * MB,
        p_private=0.16,
        p_hot=0.28,
        p_warm=0.44,
        p_cold=0.12,
        write_fraction_private=0.25,
        write_fraction_hot=0.45,
        write_fraction_warm=0.10,
        write_fraction_cold=0.05,
        best_policy="ft2",
        description="Frequent itemset mining over a shared FP-tree; mostly "
        "read-shared with bursts of tree construction writes.",
    ),
}

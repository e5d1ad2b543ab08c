"""CloudSuite workload models (scale-out server workloads).

The paper uses three CloudSuite 1.0 workloads with available 32-core Simics
checkpoints -- nutch (web search), cassandra (data serving) and
classification (data analytics / MapReduce) -- plus the Graph Analytics
benchmark (tunkrank) from CloudSuite 2.0.

Characteristics encoded in the specs:

* server workloads have comparatively little inter-thread communication
  (Ferdman et al., ASPLOS'12), so the full-dir design *helps* them (6.4 % to
  22.9 % in the paper) -- their shared-region write fractions are low;
* nutch is the exception: the thread that accepts a request is usually not
  the thread that processes it, so request/response buffers bounce between
  sockets.  That hand-off is modelled with a hot shared region with a high
  write fraction, which is what makes full-dir lose badly on nutch while C3D
  does not;
* tunkrank (graph analytics) has the lowest remote-access fraction in
  Table I (61.6 %) because a larger share of its accesses go to per-thread
  private state.
"""

from __future__ import annotations

from typing import Dict

from .synthetic import WorkloadSpec

__all__ = ["CLOUDSUITE_SPECS"]

MB = 2**20
GB = 2**30

CLOUDSUITE_SPECS: Dict[str, WorkloadSpec] = {
    "nutch": WorkloadSpec(
        name="nutch",
        private_bytes_per_thread=1 * MB,
        hot_shared_bytes=224 * MB,
        warm_shared_bytes=int(1.5 * GB),
        cold_shared_bytes=512 * MB,
        p_private=0.14,
        p_hot=0.34,
        p_warm=0.36,
        p_cold=0.16,
        write_fraction_private=0.25,
        write_fraction_hot=0.50,
        write_fraction_warm=0.05,
        write_fraction_cold=0.03,
        best_policy="ft2",
        description="Apache Nutch web search; request hand-off between "
        "front-end and worker threads bounces hot buffers across sockets.",
    ),
    "cassandra": WorkloadSpec(
        name="cassandra",
        private_bytes_per_thread=2 * MB,
        hot_shared_bytes=32 * MB,
        warm_shared_bytes=2 * GB,
        cold_shared_bytes=512 * MB,
        p_private=0.16,
        p_hot=0.10,
        p_warm=0.57,
        p_cold=0.17,
        write_fraction_private=0.25,
        write_fraction_hot=0.15,
        write_fraction_warm=0.04,
        write_fraction_cold=0.03,
        best_policy="interleave",
        description="Cassandra data serving; large read-mostly memtable/row "
        "cache shared by all server threads.",
    ),
    "classification": WorkloadSpec(
        name="classification",
        private_bytes_per_thread=1 * MB,
        hot_shared_bytes=24 * MB,
        warm_shared_bytes=int(1.8 * GB),
        cold_shared_bytes=256 * MB,
        p_private=0.15,
        p_hot=0.10,
        p_warm=0.61,
        p_cold=0.14,
        write_fraction_private=0.25,
        write_fraction_hot=0.15,
        write_fraction_warm=0.05,
        write_fraction_cold=0.03,
        best_policy="ft2",
        description="Mahout/Hadoop text classification; map tasks stream a "
        "shared training corpus with little write sharing.",
    ),
    "tunkrank": WorkloadSpec(
        name="tunkrank",
        private_bytes_per_thread=32 * MB,
        hot_shared_bytes=16 * MB,
        warm_shared_bytes=int(2.5 * GB),
        cold_shared_bytes=1 * GB,
        p_private=0.33,
        p_hot=0.05,
        p_warm=0.40,
        p_cold=0.22,
        write_fraction_private=0.25,
        write_fraction_hot=0.15,
        write_fraction_warm=0.04,
        write_fraction_cold=0.03,
        best_policy="interleave",
        description="GraphLab TunkRank (Twitter influence); per-thread vertex "
        "partitions plus a large shared edge list.",
    ),
}

#!/usr/bin/env python3
"""Quickstart: simulate a workload, record its trace, and replay it exactly.

The smallest end-to-end use of the library, in three steps:

1. build the paper's quad-socket machine (scaled down so the run takes
   seconds), generate a synthetic ``streamcluster`` trace, run it under the
   C3D coherence design and print the cache/NUMA statistics;
2. record the same workload to a trace directory on disk
   (``record_workload``), the API behind ``repro --record-trace``;
3. replay the recorded traces (``TraceDirWorkload``, the API behind
   ``repro --trace-dir``) and check the replay statistics are bit-identical
   to the direct run.

The equivalent CLI commands::

    PYTHONPATH=src python -m repro --workload streamcluster --record-trace traces/sc
    PYTHONPATH=src python -m repro --trace-dir traces/sc

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import _bootstrap  # noqa: F401  (makes src/ importable without PYTHONPATH)

# Everything a script needs comes from the one stable facade.
from repro.api import (
    SystemConfig,
    TraceDirWorkload,
    amat_breakdown,
    make_workload,
    record_workload,
    simulate,
)

#: Scale factor applied to capacities and working sets (docs/experiments.md,
#: "Fidelity knobs").
SCALE = 512
ACCESSES_PER_CORE = 2000
WARMUP_PER_CORE = 500


def run_once(workload) -> "object":
    """Build a fresh machine, run ``workload`` on it, return the result.

    ``repro.api.simulate`` wires the machine, runs the engine and checks
    the coherence invariants in one call.
    """
    config = SystemConfig.quad_socket(protocol="c3d").scaled(SCALE)
    return simulate(config, workload,
                    warmup_accesses_per_core=WARMUP_PER_CORE, prewarm=True)


def main() -> None:
    # 1. Describe the machine: 4 sockets x 8 cores, 1 GB DRAM cache per socket
    #    (divided by SCALE), kept coherent with the C3D protocol.
    config = SystemConfig.quad_socket(protocol="c3d").scaled(SCALE)
    print(f"Machine     : {config.describe()}")

    # 2. A workload whose working set is scaled the same way as the machine.
    workload = make_workload(
        "streamcluster",
        scale=SCALE,
        accesses_per_thread=ACCESSES_PER_CORE + WARMUP_PER_CORE,
        num_threads=config.total_cores,
    )
    print(f"Workload    : {workload.name}, {workload.num_threads} threads, "
          f"~{workload.total_footprint_bytes() / 2**20:.1f} MB footprint (scaled)")

    # 3. Run: pre-warm the DRAM caches, discard a short warm-up window, measure.
    result = run_once(workload)

    # 4. Report.
    stats = result.stats
    print(f"\nSimulated {result.accesses_executed} memory accesses "
          f"in {result.total_time_ns / 1000:.1f} simulated us")
    print(f"L1 hit rate         : {stats.l1_hit_rate() * 100:5.1f} %")
    print(f"LLC hit rate        : {stats.llc_hit_rate() * 100:5.1f} %")
    print(f"DRAM cache hit rate : {stats.dram_cache_hit_rate() * 100:5.1f} %")
    print(f"Remote memory frac. : {stats.remote_memory_fraction() * 100:5.1f} %")
    print(f"Inter-socket bytes  : {result.inter_socket_bytes}")
    print(f"Broadcast invalidations sent: {stats.broadcasts}")
    print()
    print(amat_breakdown(stats).format())

    # 5. Record the workload to per-core trace files (the `--record-trace`
    #    path) and replay them from disk (the `--trace-dir` path).  Replay is
    #    exact: the trace directory's manifest captures the memory-region
    #    hints, so page placement, pre-warm content and therefore every
    #    statistic match the direct run bit for bit.
    with tempfile.TemporaryDirectory() as tmp:
        trace_dir = Path(tmp) / "streamcluster-trace"
        record_workload(workload, trace_dir, trace_format="bin.gz")
        n_files = len(list(trace_dir.iterdir()))
        print(f"\nRecorded {n_files - 1} per-core traces + manifest -> {trace_dir}")

        replayed = run_once(TraceDirWorkload(trace_dir))
        identical = (
            replayed.stats.as_dict() == stats.as_dict()
            and replayed.total_time_ns == result.total_time_ns
            and replayed.inter_socket_bytes == result.inter_socket_bytes
        )
        print(f"Replayed    : {replayed.accesses_executed} accesses from disk")
        print(f"Replay statistics bit-identical to direct run: "
              f"{'OK' if identical else 'MISMATCH'}")
        assert identical, "trace replay diverged from the direct run"


if __name__ == "__main__":
    main()

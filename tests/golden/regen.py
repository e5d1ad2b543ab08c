"""Regenerate ``throughput_smoke.json`` after a deliberate model change.

Usage::

    PYTHONPATH=src python tests/golden/regen.py

Only run this when a simulation-behaviour change is intended; the golden
drift test (``tests/system/test_golden_stats.py``) exists precisely to make
accidental behaviour changes fail CI.

Every evaluated design is pinned, plus c3d with the broadcast filter on.
Each case records the integer counters (readable drift reports) and a
sha256 of the complete ``SimulationStats.to_json_dict()`` (latency sums and
maxima, stall time, per-core finish times), which catches a timing-only
change that leaves every counter alone.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.stats.store import content_key  # noqa: E402
from repro.system.config import SystemConfig  # noqa: E402
from repro.system.numa_system import NumaSystem  # noqa: E402
from repro.system.simulator import Simulator  # noqa: E402
from repro.workloads.registry import make_workload  # noqa: E402

INT_COUNTERS = [
    "instructions", "reads", "writes", "store_forward_hits",
    "l1_hits", "l1_misses", "llc_hits", "llc_misses", "llc_peer_hits",
    "dram_cache_hits", "dram_cache_misses",
    "served_local_memory", "served_remote_memory", "served_remote_llc",
    "served_remote_dram_cache", "served_local_dram_cache",
    "memory_reads_local", "memory_reads_remote",
    "memory_writes_local", "memory_writes_remote",
    "directory_lookups", "invalidations_sent",
    "broadcasts", "broadcasts_elided", "downgrades", "writebacks",
    "write_throughs", "upgrades",
]

SCALE = 1024
ACCESSES = 200
WORKLOAD = "facesim"

#: Case name -> SystemConfig overrides.
CASES = {
    "baseline": {"protocol": "baseline"},
    "snoopy": {"protocol": "snoopy"},
    "full-dir": {"protocol": "full-dir"},
    "c3d": {"protocol": "c3d"},
    "c3d-full-dir": {"protocol": "c3d-full-dir"},
    "c3d+broadcast-filter": {"protocol": "c3d", "broadcast_filter": True},
}


def run_case(overrides, *, scale=SCALE, accesses=ACCESSES, workload=WORKLOAD):
    """Simulate the golden scenario for one case; returns the SimulationResult."""
    config = SystemConfig.quad_socket(**overrides).scaled(scale)
    system = NumaSystem(config)
    trace = make_workload(
        workload, scale=scale, accesses_per_thread=accesses,
        num_threads=config.total_cores,
    )
    return Simulator(system, trace).run(prewarm=True)


def summarise(result):
    """The pinned view of one run: counters plus the full-statistics digest."""
    counters = {name: getattr(result.stats, name) for name in INT_COUNTERS}
    counters["accesses_executed"] = result.accesses_executed
    counters["inter_socket_bytes"] = result.inter_socket_bytes
    return {"counters": counters, "stats_sha256": content_key(result.stats.to_json_dict())}


def main() -> None:
    golden = {
        "scale": SCALE,
        "accesses_per_core": ACCESSES,
        "workload": WORKLOAD,
        "cases": {},
    }
    for name, overrides in CASES.items():
        entry = {"config": overrides}
        entry.update(summarise(run_case(overrides)))
        golden["cases"][name] = entry

    out = Path(__file__).resolve().parent / "throughput_smoke.json"
    out.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()

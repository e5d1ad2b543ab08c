#!/usr/bin/env python3
"""CI chaos smoke: a campaign must survive injected faults bit-identically.

Runs the quick four-point campaign twice -- once fault-free, once under a
seeded fault plan (20% transient worker-crash rate, one always-failing
poison point, one injected hang shorter than the watchdog budget) -- and
asserts the tentpole invariant of docs/robustness.md:

* the faulted campaign completes instead of aborting,
* exactly the poison point is quarantined to ``failures.jsonl``,
* the surviving points' merged statistics are bit-identical to the
  fault-free run's over the same subset,

then corrupts the store on purpose and checks that ``repro store verify``
flags it and ``repro store compact`` restores it so every read succeeds.

Usage::

    PYTHONPATH=src python tools/chaos_smoke.py --work-dir chaos-work

Exits 0 on success, 1 with a message on the first violated assertion.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

from repro.experiments.campaign import (
    CampaignSpec,
    campaign_status,
    merged_point_stats,
    run_campaign,
)
from repro.experiments.runner import FailurePolicy, sweep_point_key
from repro.stats.counters import SimulationStats
from repro.stats.store import ResultsStore
from repro.testing import faults
from repro.testing.faults import FaultPlan

SPEC = CampaignSpec.from_dict({
    "name": "chaos-smoke",
    "settings": {
        "scale": 4096,
        "accesses_per_thread": 150,
        "warmup_accesses_per_thread": 50,
        "num_sockets": 2,
        "cores_per_socket": 1,
    },
    "sweeps": [
        {
            "protocols": ["baseline", "c3d"],
            "workloads": ["facesim", "streamcluster"],
            "topologies": [{"sockets": 2, "cores_per_socket": 1}],
        }
    ],
})

#: The point that must end up quarantined (matches exactly one grid point).
POISON = {"workload": "streamcluster", "protocol": "c3d"}

#: A point that hangs for 1 s -- well under the watchdog budget, so it must
#: still complete (slow, not dead).
HANG = {"workload": "facesim", "protocol": "baseline"}

PLAN = FaultPlan(
    seed=7,
    crash_rate=0.2,
    poison=(POISON,),
    hang_points=(HANG,),
    hang_s=1.0,
)

POLICY = FailurePolicy(max_attempts=5, timeout_s=60.0, backoff_s=0.05, seed=7)


def fail(message: str) -> None:
    print(f"chaos-smoke: FAIL: {message}")
    sys.exit(1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work-dir", default="chaos-work", metavar="DIR",
                        help="scratch directory for the stores (default: "
                             "chaos-work)")
    args = parser.parse_args(argv)
    work = Path(args.work_dir)

    points = SPEC.expand()
    poison_points = [
        p for p in points if PLAN.is_poison(
            {"workload": p.workload, "protocol": p.protocol}
        )
    ]
    if len(poison_points) != 1:
        fail(f"poison matcher hit {len(poison_points)} points, expected 1")
    poison_key = sweep_point_key(poison_points[0], SPEC.engine)

    # --- Reference: fault-free run. -----------------------------------
    print(f"chaos-smoke: fault-free reference run ({len(points)} points)")
    clean_store = ResultsStore(work / "clean")
    clean_store.clean()
    clean = run_campaign(SPEC, clean_store, stream=io.StringIO(),
                         failure_policy=POLICY)
    if clean.failed_points:
        fail(f"fault-free run failed {clean.failed_points} point(s)")

    # --- The chaos run. ------------------------------------------------
    print(f"chaos-smoke: faulted run (crash_rate={PLAN.crash_rate}, "
          f"1 poison point, 1 injected {PLAN.hang_s:.0f}s hang)")
    chaos_store = ResultsStore(work / "chaos")
    chaos_store.clean()
    with faults.injected(PLAN):
        summary = run_campaign(SPEC, chaos_store, stream=io.StringIO(),
                               failure_policy=POLICY)

    if summary.failed_points != 1:
        fail(f"expected exactly 1 failed point, got {summary.failed_points}")
    quarantined = chaos_store.failure_log.records()
    if [record.key for record in quarantined] != [poison_key]:
        fail(f"quarantine holds {[r.key[:12] for r in quarantined]}, "
             f"expected exactly the poison point {poison_key[:12]}")
    if not quarantined[0].traceback:
        fail("quarantine record is missing its captured traceback")
    status = campaign_status(SPEC, ResultsStore(work / "chaos"))
    if status["points_quarantined"] != 1:
        fail(f"campaign status reports {status['points_quarantined']} "
             f"quarantined point(s), expected 1")

    # --- Bit-identical survivors. --------------------------------------
    survivors_reference = SimulationStats()
    for point in points:
        key = sweep_point_key(point, SPEC.engine)
        if key == poison_key:
            continue
        survivors_reference.merge(clean_store.get(key).stats)
    chaos_merged = merged_point_stats(
        SPEC, ResultsStore(work / "chaos"), skip_missing=True
    )
    if chaos_merged.to_json_dict() != survivors_reference.to_json_dict():
        fail("surviving points' merged stats differ from the fault-free run")
    print("chaos-smoke: survivors merged bit-identically to the clean run")

    # --- Store integrity: verify flags damage, compact restores. -------
    damaged_any = False
    for shard_file in ResultsStore(work / "chaos").shard_paths():
        text = shard_file.read_text(encoding="utf-8")
        damaged = text.replace('"reads":', '"raeds":', 1)  # still valid JSON
        if damaged != text:
            shard_file.write_text(damaged, encoding="utf-8")
            damaged_any = True
            break
    if not damaged_any:
        fail("could not damage the store (no '\"reads\":' in any shard?)")

    damaged_store = ResultsStore(work / "chaos")
    report = damaged_store.verify()
    if report.clean:
        fail("verify called a deliberately corrupted store clean")
    print(f"chaos-smoke: verify flagged the damage "
          f"({len(report.issues)} bad line(s))")
    damaged_store.compact()
    after = ResultsStore(work / "chaos")
    if not after.verify().clean:
        fail("store still not clean after compact")
    for record in after.records():
        if after.get(record.key) is None:
            fail(f"read of {record.key[:12]}... failed after compact")
    print("chaos-smoke: compact restored the store (all reads succeed)")

    # The damaged record was dropped; the next campaign run re-executes it
    # (and the quarantined poison point is retried -- by design).
    print("chaos-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Chaos tests: campaigns survive killed workers and injected faults.

Two escalations beyond ``test_campaign_resume``:

* SIGKILL an actual ``repro campaign run`` *process* mid-point (no
  cooperative shutdown at all) and require the next invocation to resume to
  bit-identical merged statistics.
* Run a whole campaign under an injected fault plan (transient worker
  crashes plus one poison point) and require the surviving points' merged
  statistics to be bit-identical to a fault-free run -- the tentpole
  invariant of docs/robustness.md.
"""

import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.campaign import (
    CampaignSpec,
    campaign_status,
    merged_point_stats,
    run_campaign,
)
from repro.experiments.runner import FailurePolicy, sweep_point_key
from repro.stats.store import ResultsStore
from repro.testing import faults
from repro.testing.faults import FaultPlan

SPEC_DICT = {
    "name": "chaos-check",
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
}

SPEC = CampaignSpec.from_dict(SPEC_DICT)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _group_alive(pgid: int) -> bool:
    """Whether process group ``pgid`` still has a member that is not a zombie."""
    proc = Path("/proc")
    if not proc.is_dir():
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return False
        return True
    for stat in proc.glob("[0-9]*/stat"):
        try:
            # "pid (comm) state ppid pgrp ..."; comm may contain spaces.
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we looked
        if fields[0] != "Z" and int(fields[2]) == pgid:
            return True
    return False


def test_sigkilled_campaign_resumes_bit_identically(tmp_path):
    """Kill -9 a live `repro campaign run` mid-point; resume must converge."""
    points = SPEC.expand()
    assert len(points) == 4

    cold_store = ResultsStore(tmp_path / "cold")
    run_campaign(SPEC, cold_store, stream=io.StringIO())
    cold_merged = merged_point_stats(SPEC, cold_store)

    spec_path = tmp_path / "chaos.json"
    spec_path.write_text(json.dumps(SPEC_DICT), encoding="utf-8")
    victim_dir = tmp_path / "victim"

    # The 3rd expanded point hangs inside its worker (2 minutes, far beyond
    # the test), so the parent is reliably mid-campaign -- with exactly two
    # completed records on disk -- when the SIGKILL lands.
    hang_point = points[2]
    plan = FaultPlan(
        hang_points=(
            {"workload": hang_point.workload, "protocol": hang_point.protocol},
        ),
        hang_s=120.0,
    )
    env = dict(os.environ)
    env[faults.ENV_VAR] = plan.to_json()
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    # Its own process group, so the kill below reaches the point worker too.
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "run", str(spec_path),
         "--store", str(victim_dir)],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            victim = ResultsStore(victim_dir)
            if len(victim) >= 2:
                break
            time.sleep(0.1)
        else:
            pytest.fail("campaign never persisted its first two points")
    finally:
        # No SIGTERM first: the point is simulating a power cut, which takes
        # the hung point worker down with the campaign process.
        os.killpg(process.pid, signal.SIGKILL)
        process.wait(timeout=30)
    deadline = time.monotonic() + 30.0
    while _group_alive(process.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _group_alive(process.pid), "a campaign process outlived the kill"

    resumed_store = ResultsStore(victim_dir)
    status = campaign_status(SPEC, resumed_store)
    assert status["points_done"] == 2
    assert status["points_total"] == 4

    # Fresh in-process invocation, no faults installed: finishes the rest.
    summary = run_campaign(SPEC, resumed_store, stream=io.StringIO())
    assert summary.cached_points == 2
    assert summary.executed_points == 2
    assert summary.failed_points == 0

    resumed_merged = merged_point_stats(SPEC, ResultsStore(victim_dir))
    assert resumed_merged.to_json_dict() == cold_merged.to_json_dict()


def test_faulted_campaign_is_bit_identical_over_surviving_points(tmp_path):
    """Crashes + a poison point: survivors must merge exactly like fault-free."""
    points = SPEC.expand()
    poison = points[1]

    clean_store = ResultsStore(tmp_path / "clean")
    run_campaign(SPEC, clean_store, stream=io.StringIO())

    plan = FaultPlan(
        seed=7,
        crash_rate=0.2,        # transient: retries re-roll and recover
        poison=({"workload": poison.workload, "protocol": poison.protocol},),
    )
    chaos_store = ResultsStore(tmp_path / "chaos")
    with faults.injected(plan):
        summary = run_campaign(
            SPEC,
            chaos_store,
            stream=io.StringIO(),
            failure_policy=FailurePolicy(max_attempts=5, backoff_s=0.01, seed=7),
        )
    assert summary.failed_points == 1
    assert summary.executed_points == 3
    assert {f.key for f in summary.failures} == {sweep_point_key(poison)}
    assert [r.key for r in chaos_store.failure_log.records()] == [
        sweep_point_key(poison)
    ]
    status = campaign_status(SPEC, ResultsStore(tmp_path / "chaos"))
    assert status["points_quarantined"] == 1

    # The survivors are bit-identical to their fault-free counterparts...
    chaos_merged = merged_point_stats(
        SPEC, ResultsStore(tmp_path / "chaos"), skip_missing=True
    )
    reference = merged_point_stats(
        CampaignSpec.from_dict({**SPEC_DICT, "name": "clean"}),
        clean_store,
        skip_missing=False,
    )
    # ...which we check by folding the clean store over the same surviving
    # subset (everything except the poison point).
    from repro.stats.counters import SimulationStats

    survivors = SimulationStats()
    for point in points:
        if point == poison:
            continue
        survivors.merge(clean_store.get(sweep_point_key(point)).stats)
    assert chaos_merged.to_json_dict() == survivors.to_json_dict()
    assert reference.to_json_dict() != survivors.to_json_dict()  # sanity

    # A later, fault-free invocation completes the quarantined point and
    # converges to the fault-free aggregate exactly.
    final = run_campaign(SPEC, ResultsStore(tmp_path / "chaos"), stream=io.StringIO())
    assert final.failed_points == 0
    assert merged_point_stats(
        SPEC, ResultsStore(tmp_path / "chaos")
    ).to_json_dict() == merged_point_stats(SPEC, clean_store).to_json_dict()

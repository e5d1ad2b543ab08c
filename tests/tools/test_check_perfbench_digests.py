"""Unit tests for tools/check_perfbench_digests.py (the CI digest pin and
speed floor).

The tool runs perfbench itself, which takes close to a minute, so these
tests pin only what is cheap: the pins and floors cover every perfbench
workload, the pins at the spec seeds and at 9973, and the output parser,
the mismatch report and the floor read perfbench's printed lines correctly.
"""

import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "check_perfbench_digests", REPO_ROOT / "tools" / "check_perfbench_digests.py"
)
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)

DIGEST = "ab" * 32
OUTPUT = f"""perfbench fig6-grid  seed=spec  passes: 1 untraced, 0 traced
  wall_s                                      6.5 s
  stats digest over 45 points: {DIGEST}
  results: .perfbench/fig6-grid-seedspec-trace0.json
{json.dumps({"correct": True, "attempted": 45, "failed": 0, "metrics": {
    "sim_accesses_per_s": {"value": 80000.0, "unit": "1/s"}}})}
"""


def test_pins_cover_every_workload_at_both_seeds():
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(REPO_ROOT / "perfbench"))
    pins = tool.load_pins()
    assert set(pins) == set(workloads.WORKLOADS)
    for digests in pins.values():
        assert set(digests) == {"spec", "9973"}
        assert all(len(digest) == 64 for digest in digests.values())
    floors = tool.load_floors()
    assert set(floors) == set(pins)
    assert all(floor > 0 for floor in floors.values())


def test_parse_run_reads_digest_and_correct_flag():
    assert tool.parse_run(OUTPUT) == (DIGEST, True)
    assert tool.parse_run("Traceback (most recent call last): ...") == (None, None)


def test_check_reports_a_changed_digest_and_an_incorrect_run(monkeypatch):
    outputs = {"spec": OUTPUT, "9973": OUTPUT.replace('"correct": true', '"correct": false')}
    monkeypatch.setattr(tool, "run_once", lambda workload, seed: outputs[seed])
    pins = {"fig6-grid": {"spec": DIGEST, "9973": "cd" * 32}}
    problems = tool.check(pins, ["fig6-grid"], {"fig6-grid": 40000})
    assert len(problems) == 2
    assert all("seed=9973" in problem for problem in problems)


def test_check_reports_a_run_below_its_floor(monkeypatch):
    """Equal digests and correct runs still fail when a run is slower than
    its workload's floor, or printed no rate; a run at its floor passes."""
    slow = OUTPUT.replace("80000.0", "39999.0")
    outputs = {"spec": OUTPUT, "9973": slow}
    monkeypatch.setattr(tool, "run_once", lambda workload, seed: outputs[seed])
    pins = {"fig6-grid": {"spec": DIGEST, "9973": DIGEST}}
    assert tool.check(pins, ["fig6-grid"], {"fig6-grid": 80000}) == [
        "fig6-grid seed=9973: sim_accesses_per_s 39,999/s, below its floor 80,000/s"
    ]
    outputs["9973"] = OUTPUT.replace('"sim_accesses_per_s"', '"other"')
    [problem] = tool.check(pins, ["fig6-grid"], {"fig6-grid": 40000})
    assert problem.startswith("fig6-grid seed=9973: sim_accesses_per_s no rate")

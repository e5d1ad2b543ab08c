#!/usr/bin/env python3
"""Check perfbench's statistics digests against their pins, and its speed.

For each workload and seed pinned in ``tests/golden/perfbench_digests.json``
this runs exactly one pass of the reproduction benchmark::

    python3 perfbench/run.py --workload W --seconds 0 --trace 0 [--seed S]

and compares the combined digest it prints (``stats digest over N points:
HEX``) with the pin.  A run must also report ``"correct": true``.  A
performance change must leave every simulated statistic bit-identical, so
any difference is a model change, intended or not.

The same file stores each workload's speed floor: the run's
``sim_accesses_per_s`` (on perfbench's last JSON line, at the reference
host speed) must not be below it.  A floor is half the median on a 2-vCPU
development VM, so host noise passes and a lost hot path does not.

Usage::

    python tools/check_perfbench_digests.py

Exits 0 when every digest matches and every run meets its floor, 1
otherwise.  Stdlib-only.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "golden" / "perfbench_digests.json"

_DIGEST = re.compile(r"stats digest over \d+ points: ([0-9a-f]{64})")


def load_pins() -> Dict[str, Dict[str, str]]:
    """``{workload: {seed: digest}}``; seed ``"spec"`` is the workload's own."""
    return json.loads(PINS.read_text())["digests"]


def load_floors() -> Dict[str, float]:
    """``{workload: least sim_accesses_per_s}`` of every pinned run."""
    return json.loads(PINS.read_text())["sim_accesses_per_s_floors"]


def _summary(output: str) -> Dict:
    """The JSON object a run prints last (empty if it printed none)."""
    summary: Dict = {}
    for line in output.splitlines():
        if line.startswith("{") and '"correct"' in line:
            summary = json.loads(line)
    return summary


def parse_run(output: str) -> Tuple[Optional[str], Optional[bool]]:
    """The combined digest and the ``correct`` flag printed by one run."""
    match = _DIGEST.search(output)
    return (match.group(1) if match else None), _summary(output).get("correct")


def parse_rate(output: str) -> Optional[float]:
    """The ``sim_accesses_per_s`` printed by one run (None if absent)."""
    reading = _summary(output).get("metrics", {}).get("sim_accesses_per_s")
    return reading["value"] if reading else None


def run_once(workload: str, seed: str) -> str:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seconds", "0", "--trace", "0"]
    if seed != "spec":
        command += ["--seed", seed]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    return done.stdout + done.stderr


def check(pins: Dict[str, Dict[str, str]], workloads: Iterable[str],
          floors: Dict[str, float]) -> List[str]:
    """Run every pinned (workload, seed); returns one line per mismatch and
    per run below its workload's floor."""
    problems = []
    for workload in workloads:
        floor = floors[workload]
        for seed, expected in sorted(pins[workload].items()):
            output = run_once(workload, seed)
            digest, correct = parse_run(output)
            rate = parse_rate(output)
            fast = rate is not None and rate >= floor
            verdict = "ok" if digest == expected and correct and fast else "FAIL"
            reading = "no rate" if rate is None else f"{rate:,.0f}/s"
            print(f"{workload:<14} seed={seed:<5} {digest} correct={correct} "
                  f"{reading} (floor {floor:,.0f}/s)  {verdict}")
            if digest != expected:
                problems.append(f"{workload} seed={seed}: digest {digest}, pinned {expected}")
            if not correct:
                problems.append(f"{workload} seed={seed}: run not correct ({correct})")
            if not fast:
                problems.append(f"{workload} seed={seed}: sim_accesses_per_s {reading}, "
                                f"below its floor {floor:,.0f}/s")
    return problems


def main() -> int:
    pins = load_pins()
    problems = check(pins, sorted(pins), load_floors())
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

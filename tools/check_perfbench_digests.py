#!/usr/bin/env python3
"""Check that perfbench's statistics digests equal their pinned values.

For each workload and seed pinned in ``tests/golden/perfbench_digests.json``
this runs exactly one pass of the reproduction benchmark::

    python3 perfbench/run.py --workload W --seconds 0 --trace 0 [--seed S]

and compares the combined digest it prints (``stats digest over N points:
HEX``) with the pin.  A run must also report ``"correct": true``.  A
performance change must leave every simulated statistic bit-identical, so
any difference is a model change, intended or not.

Usage::

    python tools/check_perfbench_digests.py

Exits 0 when every digest matches, 1 otherwise.  Stdlib-only.
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


def parse_run(output: str) -> Tuple[Optional[str], Optional[bool]]:
    """The combined digest and the ``correct`` flag printed by one run."""
    match = _DIGEST.search(output)
    correct = None
    for line in output.splitlines():
        if line.startswith("{") and '"correct"' in line:
            correct = json.loads(line)["correct"]
    return (match.group(1) if match else None), correct


def run_once(workload: str, seed: str) -> str:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seconds", "0", "--trace", "0"]
    if seed != "spec":
        command += ["--seed", seed]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    return done.stdout + done.stderr


def check(pins: Dict[str, Dict[str, str]], workloads: Iterable[str]) -> List[str]:
    """Run every pinned (workload, seed); returns one line per mismatch."""
    problems = []
    for workload in workloads:
        for seed, expected in sorted(pins[workload].items()):
            digest, correct = parse_run(run_once(workload, seed))
            verdict = "ok" if digest == expected and correct else "MISMATCH"
            print(f"{workload:<14} seed={seed:<5} {digest} correct={correct}  {verdict}")
            if digest != expected:
                problems.append(f"{workload} seed={seed}: digest {digest}, pinned {expected}")
            if not correct:
                problems.append(f"{workload} seed={seed}: run not correct ({correct})")
    return problems


def main() -> int:
    pins = load_pins()
    problems = check(pins, sorted(pins))
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

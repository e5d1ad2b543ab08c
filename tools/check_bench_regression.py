#!/usr/bin/env python3
"""CI performance-regression gate over ``repro bench`` output.

Compares the most recent record of a bench output file (the JSON list
``repro bench`` appends to) against the committed reference in
``benchmarks/baseline.json``.  Two gates share the file:

* **measurements** (the default): every measurement key present in the
  baseline must reach at least ``tolerance * baseline`` accesses/sec.  The
  tolerance absorbs runner-to-runner noise; a real hot-path regression (or
  an accidentally quadratic change) lands well below it.
* **speedups** (``--speedups``): every key of the baseline's ``speedups``
  section -- the ``sampled_speedup_*`` exact-vs-sampled ratios ``repro
  bench --sampled`` records -- must reach its committed floor.  Ratios of
  two runs on the same machine are largely noise-immune, so the floors are
  applied directly (no tolerance factor).

The gate reads the *latest* record of the history file.

Usage::

    PYTHONPATH=src python -m repro bench --accesses 100 --rounds 2 \
        --output bench_regression.json
    python tools/check_bench_regression.py bench_regression.json

    PYTHONPATH=src python -m repro bench --accesses 2500 --rounds 2 \
        --protocols baseline c3d --engines compiled --sampled \
        --output bench_sampled.json
    python tools/check_bench_regression.py bench_sampled.json --speedups

Exits 0 when every gated value clears, 1 otherwise (listing each
regression), and 2 when the record file holds no record.  The CI
``bench-regression`` job uploads the fresh output as a workflow artifact
so the committed baseline can be refreshed from a healthy build (see the
note inside ``benchmarks/baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baseline.json"


def latest_record(path: Path) -> dict:
    """The most recent record of a ``repro bench`` output file.

    A single-record file (a bare JSON object, not a list) is returned as-is.
    """
    history = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(history, list):
        return history
    if not history:
        raise ValueError(f"{path} contains an empty history")
    return history[-1]


def check(record: dict, baseline: dict, tolerance: Optional[float] = None) -> List[str]:
    """Return one message per measurement below ``tolerance * baseline``."""
    if tolerance is None:
        tolerance = baseline.get("tolerance", 0.7)
    failures: List[str] = []
    measured = record.get("measurements", {})
    for key, reference in baseline["measurements"].items():
        floor = tolerance * reference["accesses_per_sec"]
        entry = measured.get(key)
        if entry is None:
            failures.append(f"{key}: missing from the bench record")
            continue
        rate = entry["accesses_per_sec"]
        verdict = "ok" if rate >= floor else "REGRESSION"
        print(
            f"{key:<22s} {rate:>12,.0f} acc/s  "
            f"(baseline {reference['accesses_per_sec']:,.0f}, "
            f"floor {floor:,.0f})  {verdict}"
        )
        if rate < floor:
            failures.append(
                f"{key}: {rate:,.0f} accesses/sec is below the regression "
                f"floor {floor:,.0f} ({tolerance:.0%} of baseline "
                f"{reference['accesses_per_sec']:,.0f})"
            )
    return failures


def check_speedups(record: dict, baseline: dict) -> List[str]:
    """Gate the record's top-level speedup ratios against committed floors.

    The baseline's ``speedups`` section maps record keys (e.g.
    ``sampled_speedup_c3d``) to minimum acceptable ratios.  Ratios compare
    two runs of the same invocation on the same machine, so the floors are
    enforced directly -- no noise tolerance factor.
    """
    failures: List[str] = []
    floors = baseline.get("speedups", {})
    if not floors:
        failures.append("baseline has no 'speedups' section to gate against")
        return failures
    for key, floor in floors.items():
        value = record.get(key)
        if value is None:
            failures.append(
                f"{key}: missing from the bench record (was the bench run "
                "with the engines that produce this ratio?)"
            )
            continue
        verdict = "ok" if value >= floor else "REGRESSION"
        print(f"{key:<28s} {value:>6.2f}x  (floor {floor:.2f}x)  {verdict}")
        if value < floor:
            failures.append(
                f"{key}: {value:.2f}x is below the committed floor {floor:.2f}x"
            )
    return failures


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("record", help="bench output JSON (repro bench --output)")
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help="committed reference file (default: benchmarks/baseline.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="override the baseline file's tolerance (fraction of baseline)",
    )
    parser.add_argument(
        "--speedups",
        action="store_true",
        help="gate the baseline's 'speedups' section (sampled_speedup_*) "
        "instead of the throughput measurements",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        record = latest_record(Path(args.record))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
    if args.speedups:
        failures = check_speedups(record, baseline)
    else:
        failures = check(record, baseline, args.tolerance)
    stamp = record.get("timestamp", "?")
    sha = record.get("git_sha") or "unknown-sha"
    if failures:
        print(f"\nbench regression gate FAILED for {sha} @ {stamp}:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"\nbench regression gate passed for {sha} @ {stamp}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

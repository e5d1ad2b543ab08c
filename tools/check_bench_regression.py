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
  bench --sampled`` records and the ``parallel_speedup_*``
  serial-vs-parallel sampled ratios recorded when ``sampled`` and
  ``sampled-par`` are benched together -- must reach its
  committed floor.  Ratios of two runs on the same machine are largely
  noise-immune, so the floors are applied directly (no tolerance factor).
  ``--speedups-prefix`` limits the gate to one engine family's floors, so
  the sampling and parallel CI jobs each gate only the ratios
  their own bench invocation produced.

By default the gate reads the *latest* record of the history file;
``--record-index`` (Python list indexing) or ``--timestamp`` pins a
specific record instead, so a job appending to a shared history can gate
exactly the record it just produced.

Usage::

    PYTHONPATH=src python -m repro bench --accesses 100 --rounds 2 \
        --output bench_regression.json
    python tools/check_bench_regression.py bench_regression.json

    PYTHONPATH=src python -m repro bench --accesses 2500 --rounds 2 \
        --protocols baseline c3d --engines compiled --sampled \
        --output bench_sampled.json
    python tools/check_bench_regression.py bench_sampled.json \
        --speedups --speedups-prefix sampled_

    PYTHONPATH=src python -m repro bench --workload hotset --scale 1 \
        --accesses 2500 --rounds 2 --protocols baseline c3d \
        --engines sampled sampled-par --engine-jobs 4 \
        --sample-plan units=8,detail=250,warmup=25 \
        --output bench_parallel.json
    python tools/check_bench_regression.py bench_parallel.json \
        --speedups-prefix parallel_ --record-index -1

Exits 0 when every gated value clears, 1 otherwise (listing each
regression).  The CI ``bench-regression`` job uploads the fresh output as a
workflow artifact so the committed baseline can be refreshed from a healthy
build (see the note inside ``benchmarks/baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baseline.json"


def select_record(
    path: Path, *, index: Optional[int] = None, timestamp: Optional[str] = None
) -> dict:
    """Pick one record of a ``repro bench`` output file.

    By default the most recent record (``index=-1``); a CI job that just
    appended its own record to a shared history pins the exact one it
    produced with ``index`` (Python list semantics, negatives count from the
    end) or with the record's ``timestamp`` field.  A single-record file (a
    bare JSON object, not a list) is returned as-is for either selector.
    """
    if index is not None and timestamp is not None:
        raise ValueError("pass either index or timestamp, not both")
    history = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(history, list):
        return history
    if not history:
        raise ValueError(f"{path} contains an empty history")
    if timestamp is not None:
        matches = [r for r in history if r.get("timestamp") == timestamp]
        if not matches:
            stamps = [r.get("timestamp", "?") for r in history]
            raise ValueError(
                f"{path} has no record with timestamp {timestamp!r} "
                f"(available: {stamps})"
            )
        return matches[-1]
    try:
        return history[index if index is not None else -1]
    except IndexError:
        raise ValueError(
            f"{path} has {len(history)} record(s); index {index} is out of range"
        ) from None


def latest_record(path: Path) -> dict:
    """The most recent record of a ``repro bench`` output file."""
    return select_record(path)


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


def check_speedups(
    record: dict, baseline: dict, prefix: Optional[str] = None
) -> List[str]:
    """Gate the record's top-level speedup ratios against committed floors.

    The baseline's ``speedups`` section maps record keys (e.g.
    ``sampled_speedup_c3d``, ``parallel_speedup_baseline``) to minimum
    acceptable ratios.  Ratios compare two runs of the same invocation on
    the same machine, so the floors are enforced directly -- no noise
    tolerance factor.  ``prefix`` restricts the gate to floors whose key
    starts with it, so CI jobs that each bench one engine family gate only
    the ratios their bench invocation produced.
    """
    failures: List[str] = []
    floors = baseline.get("speedups", {})
    if prefix:
        floors = {key: f for key, f in floors.items() if key.startswith(prefix)}
    if not floors:
        failures.append(
            f"baseline has no 'speedups' entries matching prefix {prefix!r}"
            if prefix
            else "baseline has no 'speedups' section to gate against"
        )
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
        help="gate the baseline's 'speedups' section (sampled_speedup_*, "
        "parallel_speedup_*) instead of the throughput measurements",
    )
    parser.add_argument(
        "--speedups-prefix",
        default=None,
        metavar="PREFIX",
        help="with --speedups (implied), gate only floors whose key starts "
        "with PREFIX (e.g. 'sampled_' or 'parallel_')",
    )
    selector = parser.add_mutually_exclusive_group()
    selector.add_argument(
        "--record-index",
        type=int,
        default=None,
        metavar="I",
        help="gate history record I instead of the latest (Python list "
        "indexing; -1 = latest)",
    )
    selector.add_argument(
        "--timestamp",
        default=None,
        metavar="TS",
        help="gate the history record whose 'timestamp' field equals TS",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        record = select_record(
            Path(args.record), index=args.record_index, timestamp=args.timestamp
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
    if args.speedups or args.speedups_prefix:
        failures = check_speedups(record, baseline, args.speedups_prefix)
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

#!/usr/bin/env python3
"""Validate the sampled engine against exact simulation.

For every (workload, protocol) pair of a quick configuration this harness
runs the same trace exactly (``compiled`` engine) and with statistical
sampling (``sampled`` engine) and asserts that **every metric the sampled
run reports contains the exact run's value inside its confidence interval**.
See ``docs/sampling.md`` for the error-bound semantics.

It also gates what sampling is for, the wall clock: per protocol, the exact
runs' total seconds over the sampled runs' total seconds must be at least
:data:`MIN_SPEEDUP`.  Each engine is timed warm, as the faster of two runs
on fresh machines: the first run of a workload in a process compiles its
traces and fills its prewarm template, and every later run reuses both
(docs/performance.md, "Set-up once per workload").

Usage::

    PYTHONPATH=src python tools/check_sampling.py             # quick defaults
    PYTHONPATH=src python tools/check_sampling.py --accesses 3000 \
        --plan units=8,detail=100,warmup=50 --protocols baseline c3d

Exits 0 when every metric of every pair is contained and every protocol
meets the speed floor, 1 otherwise (listing each violation).  Used by CI's
``sampling-validation`` job and ``tests/system/test_sampling.py``, and
runnable standalone before relying on a sampled campaign.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.stats.sampling import SamplingPlan
from repro.system.config import PROTOCOL_NAMES, SystemConfig
from repro.system.numa_system import NumaSystem
from repro.system.simulator import Simulator
from repro.workloads.registry import make_workload

DEFAULT_WORKLOADS = ("streamcluster", "facesim")
#: Every design: each fast-forwards through its own state-only mirrors.
DEFAULT_PROTOCOLS = PROTOCOL_NAMES

#: Per protocol, the least total exact seconds over total sampled seconds.
MIN_SPEEDUP = 1.15

#: Exact-run accessors for every metric the sampled engine estimates.
EXACT_METRICS = {
    "amat_ns": lambda stats: stats.amat_ns(),
    "write_latency_ns": lambda stats: stats.write_latency.mean,
    "llc_miss_latency_ns": lambda stats: stats.llc_miss_latency.mean,
    "l1_hit_rate": lambda stats: stats.l1_hit_rate(),
    "llc_hit_rate": lambda stats: stats.llc_hit_rate(),
    "dram_cache_hit_rate": lambda stats: stats.dram_cache_hit_rate(),
    "remote_memory_fraction": lambda stats: stats.remote_memory_fraction(),
}


def run_pair(
    workload: str,
    protocol: str,
    *,
    scale: int,
    accesses: int,
    warmup: int,
    sockets: int,
    cores_per_socket: int,
    plan: Optional[SamplingPlan],
    seed: Optional[int],
):
    """Run one (workload, protocol) pair exactly and sampled, twice each.

    Returns ``(exact_result, sampled_result, exact_seconds, sampled_seconds,
    invariant_violations)``; each time is the faster of the engine's two
    runs, and the violations are those of the last sampled machine.
    """

    def build():
        base = (
            SystemConfig.dual_socket if sockets == 2 else SystemConfig.quad_socket
        )
        config = base(
            protocol=protocol,
            num_sockets=sockets,
            cores_per_socket=cores_per_socket,
        ).scaled(scale)
        system = NumaSystem(config)
        generator = make_workload(
            workload,
            scale=scale,
            accesses_per_thread=accesses + warmup,
            num_threads=config.total_cores,
            seed=seed,
        )
        return system, generator

    def timed(engine, sample_plan=None):
        best = float("inf")
        for _ in range(2):
            system, generator = build()
            started = time.perf_counter()
            result = Simulator(
                system, generator, engine=engine, sample_plan=sample_plan
            ).run(warmup_accesses_per_core=warmup, prewarm=True)
            best = min(best, time.perf_counter() - started)
        return result, system, best

    exact, _, exact_seconds = timed("compiled")
    sampled, system, sampled_seconds = timed("sampled", plan)
    return exact, sampled, exact_seconds, sampled_seconds, system.check_invariants()


def check_containment(exact_stats, sampled_stats) -> List[str]:
    """Return one message per metric whose exact value escapes its interval."""
    failures: List[str] = []
    summary = sampled_stats.sampling
    if summary is None or not summary.metrics:
        return ["sampled run produced no metric estimates"]
    for name, estimate in summary.metrics.items():
        exact_value = EXACT_METRICS[name](exact_stats)
        if not estimate.contains(exact_value):
            failures.append(
                f"{name}: exact {exact_value:.6g} outside "
                f"[{estimate.lower:.6g}, {estimate.upper:.6g}] "
                f"(mean {estimate.mean:.6g} +/- {estimate.half_width:.3g})"
            )
    return failures


def check_speedups(seconds: Dict[str, Tuple[float, float]]) -> List[str]:
    """Print each protocol's exact/sampled ratio; return the protocols below
    :data:`MIN_SPEEDUP`.

    ``seconds`` maps a protocol to its (total exact, total sampled) seconds.
    """
    slow: List[str] = []
    for protocol, (exact_s, sampled_s) in seconds.items():
        ratio = exact_s / sampled_s if sampled_s > 0 else float("inf")
        status = "ok" if ratio >= MIN_SPEEDUP else "FAIL"
        print(
            f"{protocol}: {status}  exact {exact_s:.2f}s / sampled {sampled_s:.2f}s "
            f"= {ratio:.2f}x (floor {MIN_SPEEDUP:.2f}x)"
        )
        if ratio < MIN_SPEEDUP:
            slow.append(protocol)
    return slow


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(DEFAULT_WORKLOADS))
    parser.add_argument("--protocols", nargs="+", default=list(DEFAULT_PROTOCOLS))
    parser.add_argument("--scale", type=int, default=1024)
    parser.add_argument(
        "--accesses", type=int, default=3000, help="measured accesses per core"
    )
    parser.add_argument(
        "--warmup", type=int, default=300, help="run-level warm-up accesses per core"
    )
    parser.add_argument("--sockets", type=int, default=4)
    parser.add_argument("--cores-per-socket", type=int, default=8)
    parser.add_argument(
        "--plan",
        default="units=8,detail=60,warmup=40,confidence=0.99,bias_floor=0.03",
        metavar="SPEC",
        help="sampling plan spec ('auto' derives one from the trace length). "
        "The default validates at 99% confidence: the harness checks ~30 "
        "metrics per invocation, so a 95% interval would be expected to "
        "miss one even when the estimator is perfectly calibrated.",
    )
    parser.add_argument("--seed", type=int, default=1, help="workload RNG seed")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    plan = None if args.plan == "auto" else SamplingPlan.from_spec(args.plan)
    failures = 0
    pairs = [(w, p) for w in args.workloads for p in args.protocols]
    seconds = {protocol: (0.0, 0.0) for protocol in args.protocols}
    for workload, protocol in pairs:
        exact, sampled, exact_s, sampled_s, violations = run_pair(
            workload,
            protocol,
            scale=args.scale,
            accesses=args.accesses,
            warmup=args.warmup,
            sockets=args.sockets,
            cores_per_socket=args.cores_per_socket,
            plan=plan,
            seed=args.seed,
        )
        total_exact, total_sampled = seconds[protocol]
        seconds[protocol] = (total_exact + exact_s, total_sampled + sampled_s)
        problems = check_containment(exact.stats, sampled.stats)
        for violation in violations:
            problems.append(f"coherence invariant violated after sampling: {violation}")
        speedup = exact_s / sampled_s if sampled_s > 0 else float("inf")
        status = "ok" if not problems else "FAIL"
        print(
            f"{workload}/{protocol}: {status}  exact {exact_s:.2f}s, "
            f"sampled {sampled_s:.2f}s ({speedup:.2f}x), "
            f"{len(sampled.stats.sampling.metrics)} metrics checked"
        )
        for problem in problems:
            print(f"  {problem}")
            failures += 1
    print()
    slow = check_speedups(seconds)
    if failures or slow:
        print(
            f"\n{failures} containment/invariant failure(s), "
            f"{len(slow)} protocol(s) below the {MIN_SPEEDUP:.2f}x speed floor"
        )
        return 1
    print(
        f"\nall {len(pairs)} pairs contained and every protocol at least "
        f"{MIN_SPEEDUP:.2f}x faster sampled"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

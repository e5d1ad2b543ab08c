"""``repro bench``: the simulator-throughput microbenchmark as a CLI command.

Runs the same scenario as ``benchmarks/test_simulator_throughput.py`` (the
facesim workload on the scaled quad-socket machine, DRAM caches pre-warmed)
for both the ``baseline`` and ``c3d`` designs and both execution engines
(``compiled`` -- the array-backed fast engine -- and ``object`` -- the legacy
one-dataclass-per-access engine the seed shipped with), and appends one JSON
record per invocation to ``BENCH_throughput.json`` so the performance
trajectory is tracked across PRs.

Usage::

    python -m repro bench
    python -m repro bench --accesses 2000 --rounds 5 --output BENCH_throughput.json
    python -m repro bench --store results/demo   # also persist the runs
    python -m repro bench --sampled              # exact-vs-sampled wall clock

With ``--store DIR`` each measured simulation's statistics are additionally
written to the persistent results store under its sweep-point content key
(see ``docs/campaigns.md``), so a later campaign or ``repro report`` over
the same points starts warm instead of re-simulating them.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import engines as engine_registry
from .system.config import SystemConfig
from .system.numa_system import NumaSystem
from .system.simulator import SimulationResult, Simulator
from .workloads.scenario import build_workload

__all__ = ["run_benchmark", "build_parser", "main"]

DEFAULT_OUTPUT = "BENCH_throughput.json"
DEFAULT_PROTOCOLS = ("baseline", "c3d")


def _run_once(
    protocol: str,
    engine: str,
    *,
    scale: int,
    accesses: int,
    workload: str,
    trace_dir: Optional[str] = None,
    scenario: Optional[str] = None,
    sample_plan=None,
) -> Tuple[Dict, SimulationResult]:
    config = SystemConfig.quad_socket(protocol=protocol).scaled(scale)
    system = NumaSystem(config)
    wl = build_workload(
        num_sockets=config.num_sockets,
        cores_per_socket=config.cores_per_socket,
        workload=workload,
        trace_dir=trace_dir,
        scenario=scenario,
        scale=scale,
        accesses_per_thread=accesses,
    )
    simulator = Simulator(system, wl, engine=engine, sample_plan=sample_plan)
    # Collect before timing: garbage from earlier rounds otherwise inflates
    # both timing noise and the copy-on-write cost of forked measurement
    # children (sampled).
    gc.collect()
    started = time.perf_counter()
    result = simulator.run(prewarm=True)
    elapsed = time.perf_counter() - started
    measurement = {
        "executed": result.accesses_executed,
        "seconds": elapsed,
        "accesses_per_sec": result.accesses_executed / elapsed if elapsed > 0 else 0.0,
    }
    return measurement, result


def _git_sha() -> Optional[str]:
    """The simulated tree's commit hash, or ``None`` outside its checkout.

    Guards against attributing the record to an unrelated enclosing
    repository (e.g. a pip-installed copy whose site-packages happens to
    live inside some other git checkout): the discovered worktree must
    actually be this project (it contains ``src/repro``).
    """
    import subprocess

    here = Path(__file__).resolve().parent

    def _git(*argv: str) -> Optional[str]:
        try:
            out = subprocess.run(
                ["git", *argv], cwd=here,
                capture_output=True, text=True, timeout=5,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        value = out.stdout.strip()
        return value if out.returncode == 0 and value else None

    toplevel = _git("rev-parse", "--show-toplevel")
    if toplevel is None or not (Path(toplevel) / "src" / "repro").is_dir():
        return None
    return _git("rev-parse", "HEAD")


def _store_run(store, protocol: str, engine: str, result, elapsed: float, *,
               scale: int, accesses: int, workload: str,
               trace_dir: Optional[str], scenario: Optional[str],
               sample_plan: Optional[str] = None) -> None:
    """Persist one measured run under its sweep-point content key."""
    from .experiments.runner import SweepPoint, sweep_point_key, sweep_point_payload
    from .stats.store import StoredRun

    point = SweepPoint(
        workload=workload, protocol=protocol, scale=scale,
        accesses_per_thread=accesses, warmup_accesses_per_thread=0,
        trace_dir=trace_dir, scenario=scenario, sample_plan=sample_plan,
    )
    store.put(StoredRun(
        key=sweep_point_key(point, engine),
        params=sweep_point_payload(point, engine),
        stats=result.stats,
        total_time_ns=result.total_time_ns,
        inter_socket_bytes=result.inter_socket_bytes,
        accesses_executed=result.accesses_executed,
        wall_clock_s=elapsed,
    ))


def run_benchmark(
    *,
    protocols=DEFAULT_PROTOCOLS,
    engines=("compiled", "object"),
    scale: int = 1024,
    accesses: int = 400,
    rounds: int = 3,
    workload: str = "facesim",
    trace_dir: Optional[str] = None,
    scenario: Optional[str] = None,
    sampled: bool = False,
    sample_plan: Optional[str] = None,
    store=None,
) -> Dict:
    """Run the throughput microbenchmark; returns one JSON-ready record.

    Each (protocol, engine) pair is run ``rounds`` times after one warm-up
    round; the best round is reported (the container-level noise on shared
    machines makes best-of more stable than the mean).  ``trace_dir``
    replays a recorded trace directory instead of generating ``workload``
    (measuring the file-backed frontend, chunked trace compilation
    included); ``scenario`` benchmarks a composed multi-program mix.

    ``sampled`` additionally measures every protocol under the ``sampled``
    engine (``sample_plan`` optionally pins the plan spec; default: derived
    from the trace length) and records a ``sampled_speedup_<protocol>``
    wall-clock ratio against the exact compiled engine -- the number that
    shows what statistical sampling buys on this machine.

    The record's ``timestamp`` is read when the measurements complete (never
    at import time) and ``git_sha`` names the simulated tree when available,
    so appended bench artifacts stay attributable.  With a ``store`` (a
    :class:`~repro.stats.store.ResultsStore`), each measured pair's
    statistics are persisted under their sweep-point key so campaigns and
    ``repro report`` can reuse them (simulations are deterministic, so every
    round produces the same statistics -- only the timing varies).
    """
    measurements: Dict[str, Dict] = {}
    run_kwargs = dict(scale=scale, accesses=accesses, workload=workload,
                      trace_dir=trace_dir, scenario=scenario)
    engines = [engine_registry.validate(engine) for engine in engines]
    if sampled and "sampled" not in engines:
        engines.append("sampled")
    plan = None
    if sample_plan is not None:
        from .stats.sampling import SamplingPlan

        plan = SamplingPlan.from_spec(sample_plan)
    for protocol in protocols:
        for engine in engines:
            # Capability flag, not a name comparison: any registered
            # sampling engine gets the plan.
            samples = engine_registry.get(engine).supports_sampling
            engine_kwargs = dict(run_kwargs)
            if samples:
                engine_kwargs["sample_plan"] = plan
            _run_once(protocol, engine, **engine_kwargs)
            runs: List[tuple] = [
                _run_once(protocol, engine, **engine_kwargs) for _ in range(rounds)
            ]
            best, best_result = max(runs, key=lambda r: r[0]["accesses_per_sec"])
            measurements[f"{protocol}/{engine}"] = {
                "accesses_per_sec": round(best["accesses_per_sec"], 1),
                "seconds_best": round(best["seconds"], 4),
                "executed": best["executed"],
                "rounds": rounds,
            }
            if store is not None:
                _store_run(store, protocol, engine, best_result, best["seconds"],
                           sample_plan=sample_plan if samples else None,
                           **run_kwargs)
    if trace_dir is not None:
        workload_label = f"trace:{trace_dir}"
    elif scenario is not None:
        workload_label = f"scenario:{scenario}"
    else:
        workload_label = workload

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": _git_sha(),
        "workload": workload_label,
        "scale": scale,
        "accesses_per_core": accesses,
        "python": platform.python_version(),
        "measurements": measurements,
    }
    for protocol in protocols:
        compiled = measurements.get(f"{protocol}/compiled")
        legacy = measurements.get(f"{protocol}/object")
        if compiled and legacy and legacy["accesses_per_sec"] > 0:
            record[f"speedup_{protocol}_compiled_vs_object"] = round(
                compiled["accesses_per_sec"] / legacy["accesses_per_sec"], 2
            )
        sampled_row = measurements.get(f"{protocol}/sampled")
        if compiled and sampled_row and sampled_row["seconds_best"] > 0:
            # Wall-clock ratio over the same trace: what sampling saves.
            record[f"sampled_speedup_{protocol}"] = round(
                compiled["seconds_best"] / sampled_row["seconds_best"], 2
            )
    return record


def append_record(record: Dict, output: Path) -> None:
    """Append ``record`` to the JSON list in ``output`` (creating it if needed)."""
    history: List[Dict] = []
    if output.exists():
        try:
            history = json.loads(output.read_text())
            if not isinstance(history, list):
                history = [history]
        except (ValueError, OSError) as exc:
            # Never silently discard the cross-PR trajectory: keep the
            # unparsable file next to the fresh one.
            backup = output.with_name(output.name + ".corrupt")
            output.replace(backup)
            print(
                f"warning: could not parse {output} ({exc}); "
                f"preserved as {backup} and starting a new history",
                file=sys.stderr,
            )
    history.append(record)
    output.write_text(json.dumps(history, indent=2) + "\n")


def build_parser() -> argparse.ArgumentParser:
    from .cli_common import store_options

    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run the simulator-throughput microbenchmark.",
        parents=[store_options(
            store_help="also persist each measured run's statistics to "
                       "this results store (docs/campaigns.md)",
            json_help="print the benchmark record as one JSON line "
                      "(default: indented)",
        )],
    )
    parser.add_argument("--scale", type=int, default=1024)
    parser.add_argument("--accesses", type=int, default=400,
                        help="measured accesses per core")
    parser.add_argument("--rounds", type=int, default=3, help="timed rounds per point")
    parser.add_argument("--workload", default="facesim")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="benchmark replay of a recorded trace directory "
                             "instead of generating --workload")
    parser.add_argument("--scenario", default=None, metavar="NAME_OR_JSON",
                        help="benchmark a composed scenario instead of "
                             "--workload (exclusive with --trace-dir)")
    parser.add_argument("--protocols", nargs="+", default=list(DEFAULT_PROTOCOLS))
    parser.add_argument("--engines", nargs="+", default=["compiled", "object"],
                        metavar="NAME",
                        help="execution engines to measure (registry: "
                             f"{', '.join(engine_registry.names())})")
    parser.add_argument("--sampled", action="store_true",
                        help="also measure the sampled engine and record the "
                             "exact-vs-sampled wall-clock speedup per protocol "
                             "(docs/sampling.md)")
    parser.add_argument("--sample-plan", default=None, metavar="SPEC",
                        help="sampling plan spec for --sampled (default: "
                             "derived from the trace length)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="JSON history file to append to ('-' to skip writing)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for engine in args.engines:
            engine_registry.validate(engine)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = None
    if args.store is not None:
        from .stats.store import ResultsStore

        store = ResultsStore(args.store)
    record = run_benchmark(
        protocols=tuple(args.protocols),
        engines=tuple(args.engines),
        scale=args.scale,
        accesses=args.accesses,
        rounds=args.rounds,
        workload=args.workload,
        trace_dir=args.trace_dir,
        scenario=args.scenario,
        # Giving a plan implies measuring it (mirrors the main CLI, where
        # --sample-plan switches the engine).
        sampled=args.sampled or args.sample_plan is not None,
        sample_plan=args.sample_plan,
        store=store,
    )
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        print(json.dumps(record, indent=2))
    if args.output != "-":
        output = Path(args.output)
        append_record(record, output)
        print(f"\nappended to {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())

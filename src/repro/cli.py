"""Command-line interface: run one simulation and print a report.

Usage::

    python -m repro --workload streamcluster --protocol c3d
    python -m repro --workload facesim --protocol full-dir --sockets 2 \
        --cores-per-socket 16 --scale 1024 --accesses 2000
    python -m repro --workload facesim --record-trace traces/facesim
    python -m repro --trace-dir traces/facesim      # exact replay
    python -m repro --scenario het-quad             # multi-program mix
    python -m repro --sample-plan units=8,detail=150,warmup=100  # sampled run
    python -m repro import lackey trace.out traces/imported  # external trace
    python -m repro analyze traces/imported --clone-out clone.json
    python -m repro --clone clone.json              # run the fitted clone
    python -m repro campaign run spec.json          # resumable batch runs
    python -m repro campaign status spec.json
    python -m repro report --store results/demo     # tables, no simulation
    python -m repro store verify --store results/demo   # integrity scan
    python -m repro store compact --store results/demo  # per-shard compaction
    python -m repro serve --store results/shared    # campaign HTTP daemon
    python -m repro submit spec.json --server http://127.0.0.1:8642 --wait

The CLI is a thin wrapper over the public API (``SystemConfig`` /
``NumaSystem`` / ``Simulator``); it exists so that a single simulation can be
launched and inspected without writing a script.  Workloads come from any of
the three frontends (see ``docs/workloads.md``): the synthetic registry
(``--workload``), a recorded trace directory (``--trace-dir``), or a scenario
composition (``--scenario``, a built-in name or a JSON file);
``--record-trace DIR`` captures the selected workload to a trace directory
before simulating it.

Seven subcommands sit in front of the single-run flags: ``campaign``
(:mod:`repro.experiments.campaign`) runs/inspects/cleans resumable
experiment campaigns against a persistent results store; ``report``
(:mod:`repro.experiments.report`) renders a populated store into
Markdown/CSV tables without re-simulating; ``store``
(:mod:`repro.stats.store`) verifies and compacts a store
(docs/robustness.md, docs/serving.md); ``serve``
(:mod:`repro.service.server`) exposes campaign submit/status/results
over HTTP against a shared sharded store, and ``submit``
(:mod:`repro.service.client`) is its thin client; ``import``
(:mod:`repro.workloads.importers`) converts external memory traces into
replayable trace directories and ``analyze``
(:mod:`repro.workloads.analyzer`) characterises a trace directory into a
JSON profile -- optionally fitting a synthetic clone (docs/ingestion.md).
Every store-touching subcommand shares the same ``--store PATH`` and
``--json`` flags (:mod:`repro.cli_common`).  See ``docs/campaigns.md``.

Scripting against the simulator is served by the stable facade
:mod:`repro.api` -- the CLI itself is a thin wrapper over it.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from . import engines
from .memory.allocation import POLICY_NAMES
from .stats.amat import amat_breakdown
from .stats.sampling import SamplingPlan
from .system.config import PROTOCOL_NAMES, SystemConfig
from .system.numa_system import NumaSystem
from .system.simulator import Simulator
from .workloads.registry import WORKLOAD_SPECS
from .workloads.scenario import build_workload
from .workloads.trace_io import TRACE_FORMATS, record_workload

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulate one workload on the C3D reproduction's NUMA machine.",
    )
    parser.add_argument("--workload", default="streamcluster", choices=sorted(WORKLOAD_SPECS),
                        help="benchmark to simulate")
    parser.add_argument("--protocol", default="c3d", choices=list(PROTOCOL_NAMES),
                        help="coherence design")
    parser.add_argument("--sockets", type=int, default=4, help="number of sockets")
    parser.add_argument("--cores-per-socket", type=int, default=8)
    parser.add_argument("--scale", type=int, default=512,
                        help="capacity/working-set scale factor "
                             "(docs/experiments.md, Fidelity knobs)")
    parser.add_argument("--accesses", type=int, default=2000,
                        help="measured memory accesses per core")
    parser.add_argument("--warmup", type=int, default=500,
                        help="warm-up accesses per core (not measured)")
    parser.add_argument("--policy", default="first_touch", choices=POLICY_NAMES,
                        help="NUMA page-placement policy")
    parser.add_argument("--no-prewarm", action="store_true",
                        help="do not pre-load the DRAM caches before measuring")
    parser.add_argument("--broadcast-filter", action="store_true",
                        help="enable the section IV-D TLB broadcast filter (C3D only)")
    parser.add_argument("--seed", type=int, default=None, help="workload RNG seed")
    parser.add_argument("--engine", default=None, metavar="NAME",
                        help="execution engine (registry: "
                             f"{', '.join(engines.names())}; default compiled "
                             "= array-backed fast path; sampled = statistical "
                             "sampling, docs/sampling.md)")
    parser.add_argument("--sample-plan", default=None, metavar="SPEC",
                        help="sampling plan ('units=8,detail=150,warmup=100' or "
                             "'auto'); implies --engine sampled")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="replay a recorded trace directory instead of "
                             "generating --workload (see docs/workloads.md)")
    parser.add_argument("--scenario", default=None, metavar="NAME_OR_JSON",
                        help="compose the workload from a scenario: a built-in "
                             "name (repro.workloads.SCENARIO_SPECS) or a "
                             "scenario JSON file")
    parser.add_argument("--clone", default=None, metavar="JSON",
                        help="run a fitted synthetic clone from a clone-spec "
                             "JSON written by `repro analyze --clone-out` "
                             "(docs/ingestion.md)")
    parser.add_argument("--record-trace", default=None, metavar="DIR",
                        help="record the selected workload to a trace directory "
                             "before simulating (replay it with --trace-dir)")
    parser.add_argument("--trace-format", default="csv", choices=list(TRACE_FORMATS),
                        help="file format used by --record-trace")
    return parser


def _build_workload(args, config):
    """Construct the workload from whichever frontend the flags select.

    Frontend-selection problems (conflicting flags, unknown scenario names,
    unreadable trace directories) exit with a one-line message instead of a
    traceback.
    """
    selected = [
        flag
        for flag, value in (("--trace-dir", args.trace_dir),
                            ("--scenario", args.scenario),
                            ("--clone", args.clone))
        if value is not None
    ]
    if len(selected) > 1:
        raise SystemExit(f"{' and '.join(selected)} are mutually exclusive")
    if args.trace_dir is not None and args.record_trace is not None:
        raise SystemExit("--record-trace makes no sense with --trace-dir "
                         "(the trace is already on disk)")
    try:
        return build_workload(
            num_sockets=config.num_sockets,
            cores_per_socket=config.cores_per_socket,
            workload=args.workload,
            trace_dir=args.trace_dir,
            scenario=args.scenario,
            clone=args.clone,
            scale=args.scale,
            accesses_per_thread=args.accesses + args.warmup,
            seed=args.seed,
        )
    except (KeyError, ValueError) as exc:
        # KeyError.str() keeps its quotes; unwrap for a clean message.
        message = exc.args[0] if exc.args else str(exc)
        raise SystemExit(f"error: {message}") from None


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "campaign":
        from .experiments.campaign import main as campaign_main

        return campaign_main(argv[1:])
    if argv and argv[0] == "report":
        from .experiments.report import main as report_main

        return report_main(argv[1:])
    if argv and argv[0] == "store":
        from .stats.store import main as store_main

        return store_main(argv[1:])
    if argv and argv[0] == "serve":
        from .service.server import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "submit":
        from .service.client import main as submit_main

        return submit_main(argv[1:])
    if argv and argv[0] == "import":
        from .workloads.importers import main as import_main

        return import_main(argv[1:])
    if argv and argv[0] == "analyze":
        from .workloads.analyzer import main as analyze_main

        return analyze_main(argv[1:])
    args = build_parser().parse_args(argv)

    # Engine resolution happens before any expensive work (workload
    # generation, trace recording) so a typo fails fast, like the old
    # argparse choices did -- but with the registry's name listing.
    engine = args.engine
    if engine is not None:
        try:
            engines.validate(engine)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
    sample_plan = None
    if args.sample_plan is not None:
        if engine is None:
            engine = "sampled"
        elif not engines.get(engine).supports_sampling:
            raise SystemExit(
                f"error: --sample-plan requires an engine with sampling "
                f"support, but --engine {engine} does not sample"
            )
        if args.sample_plan != "auto":
            try:
                sample_plan = SamplingPlan.from_spec(args.sample_plan)
            except ValueError as exc:
                raise SystemExit(f"error: {exc}")

    base = SystemConfig.dual_socket if args.sockets == 2 else SystemConfig.quad_socket
    config = base(
        protocol=args.protocol,
        num_sockets=args.sockets,
        cores_per_socket=args.cores_per_socket,
        allocation_policy=args.policy,
        broadcast_filter=args.broadcast_filter,
    ).scaled(args.scale)

    system = NumaSystem(config)
    workload = _build_workload(args, config)
    if args.record_trace is not None:
        record_workload(workload, args.record_trace, trace_format=args.trace_format)
        print(f"recorded : {workload.num_threads} per-core traces "
              f"({args.trace_format}) -> {args.record_trace}")
    simulator = Simulator(
        system,
        workload,
        engine=engine or "compiled",
        sample_plan=sample_plan,
    )

    print(f"machine  : {config.describe()}")
    name = getattr(workload, "name", args.workload)
    print(f"workload : {name} ({workload.num_threads} threads)")
    if args.scenario is not None:
        print(workload.describe())
    started = time.time()
    result = simulator.run(
        warmup_accesses_per_core=args.warmup,
        prewarm=not args.no_prewarm,
    )
    elapsed = time.time() - started

    stats = result.stats
    print(f"\nsimulated {result.accesses_executed} accesses in {elapsed:.1f} s wall clock")
    print(f"execution time (simulated) : {result.total_time_ns / 1000:.1f} us")
    print(f"AMAT                       : {stats.amat_ns():.1f} ns")
    print(f"L1 / LLC / DRAM$ hit rates : {stats.l1_hit_rate():.3f} / "
          f"{stats.llc_hit_rate():.3f} / {stats.dram_cache_hit_rate():.3f}")
    print(f"remote memory fraction     : {stats.remote_memory_fraction():.3f}")
    print(f"inter-socket bytes         : {result.inter_socket_bytes}")
    print(f"broadcasts / elided        : {stats.broadcasts} / {stats.broadcasts_elided}")
    sampling = getattr(stats, "sampling", None)
    if sampling is not None:
        print()
        print(sampling.format())
    print()
    print(amat_breakdown(stats).format())

    violations = system.check_invariants()
    if violations:
        print("\nCOHERENCE INVARIANT VIOLATIONS:")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    print("\ncoherence invariants: OK")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())

"""Reproduction benchmark for the C3D simulator: host time, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig6-grid --seconds 40 --trace 0
    python3 perfbench/run.py --workload l1-resident --seed 7 --seconds 40 --trace 1

One process runs passes of the chosen workload until ``--seconds`` would be
exceeded and reports medians over the passes, in host seconds scaled to a
reference host speed by a fixed probe loop run between simulations (the
unscaled figures are printed and recorded too).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics (host seconds per layer, call counts, hit ratios,
tracing overhead, failures and the simulated ``model.*`` figures).

``--seed`` replaces every workload's generator seed; without it each spec
keeps its own seed, so points match ``benchmarks/`` and results-store keys.
Seed 9973 is held out: it was never used while the benchmark was tuned, so a
later speed-up claim can be checked on it.

Every simulated point's statistics digest must repeat across the passes of a
run, traced or not; digests are written to
``.perfbench/<workload>-seed<seed>-trace<n>.json`` with the span tree, so two
commits can be compared exactly.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

#: End-to-end metrics (untraced run): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "sim_accesses_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Host-speed probe: loop length, and the seconds it takes at the reference
#: speed (a typical moment of a shared 2-vCPU Intel Xeon VM, Python 3.11).
#: The probe runs before every simulated point, outside the timed region,
#: and every time metric of a pass is scaled by reference / probe seconds
#: around it (see :func:`pass_scale`), so a shared host that slows down or
#: speeds up for seconds or minutes at a time does not read as a change of
#: the simulator.
PROBE_STEPS = 150_000
PROBE_REFERENCE_S = 0.0175

#: Layers whose self time is reported as ``<layer>.self_s``.
LAYERS = ("engines", "cpu", "system", "coherence", "caches", "interconnect", "memory",
          "experiments")
#: Span names whose call counts are reported as ``<name>.calls``.
COUNTED = (
    "cpu.execute_fast",
    "system.access_l1_missed",
    "system.access_functional",
    "coherence.read_miss",
    "coherence.write_miss",
    "coherence.llc_eviction",
    "coherence.functional",
    "caches.sram_lookup",
    "caches.sram_insert",
    "caches.dram_probe",
    "caches.dram_insert",
    "interconnect.send",
    "memory.read",
    "memory.write",
    "stats.store_put",
    "stats.store_get",
)
#: Metrics read as the inclusive time of one span name.
SPAN_TOTALS = {
    "engines.functional_s": "engines.functional",
    "engines.window_wait_s": "engines.window",
    "workloads.compile_s": "workloads.compile",
    "setup.construct_s": "setup.construct",
    "setup.first_touch_s": "setup.first_touch",
    "setup.prewarm_s": "setup.prewarm",
    "stats.store_put_s": "stats.store_put",
    "stats.store_get_s": "stats.store_get",
}
SETUP_SPANS = ("setup.construct", "workloads.compile", "setup.first_touch", "setup.prewarm")
#: Set-up spans that run inside ``Simulator.run`` (construction runs before it).
SETUP_IN_RUN = SETUP_SPANS[1:]

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER: Dict[str, str] = {}
PER_LAYER.update({f"{layer}.self_s": "s" for layer in LAYERS})
PER_LAYER.update({f"{name}.calls": "count" for name in COUNTED})
PER_LAYER.update({name: "s" for name in SPAN_TOTALS})
PER_LAYER.update({
    "caches.l1_hit_ratio": "ratio",
    "caches.llc_hit_ratio": "ratio",
    "caches.dram_hit_ratio": "ratio",
    "interconnect.bytes_per_access": "B/access",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
    "model.c3d_speedup_geomean": "ratio",
    "model.c3d_speedup_err_vs_paper": "ratio",
    "model.fig6_claims_held": "count",
    "model.remote_memory_frac": "ratio",
})


def _parse(argv: Optional[List[str]], workload_names) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workload_names))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload generator seed (default: each spec's own)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="host seconds of passes to run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a separately traced run")
    return parser.parse_args(argv)


def _span_total(spans: Dict[str, Dict[str, float]], names) -> float:
    return sum(spans[name]["total_s"] for name in names if name in spans)


def probe_s() -> float:
    """Host seconds of a fixed pure-Python loop of dict stores and integer
    arithmetic, the kind of work the simulator's inner loops do."""
    clock = time.perf_counter
    start = clock()
    table: Dict[int, int] = {}
    total = 0
    for step in range(PROBE_STEPS):
        table[step & 1023] = total
        total += step & 7
    return clock() - start


def pass_scale(marks: List[Tuple[float, float]], end: float) -> float:
    """Time-weighted mean of reference / probe seconds over one pass.

    ``marks`` holds (start, seconds) of each probe the pass ran, ``end`` is
    when the pass finished.  The stretch between one probe and the next (or
    the end of the pass) is scaled by the mean of the probes at its ends and
    weighted by its length, so each simulated point is scaled by the host
    speed measured right around it.
    """
    weighted = total = 0.0
    ends = marks[1:] + [(end, marks[-1][1])]
    for (start, seconds), (next_start, next_seconds) in zip(marks, ends):
        length = next_start - start - seconds
        weighted += length * PROBE_REFERENCE_S / ((seconds + next_seconds) / 2)
        total += length
    return weighted / total


def _pass_times(tracer, result) -> Tuple[float, float]:
    """(set-up seconds, simulate-phase seconds) of one pass."""
    spans = tracer.by_name()
    setup = _span_total(spans, SETUP_SPANS)
    simulate = _span_total(spans, ("system.simulator_run",)) - _span_total(
        spans, SETUP_IN_RUN
    )
    return setup, simulate


def _layer_metrics(traced, untraced_wall: float) -> Dict[str, float]:
    """Per-pass means of the traced passes' spans, plus ratios and overhead.

    ``traced`` holds (tracer, result, scale) per pass; span times are scaled
    like the end-to-end times.
    """
    count = len(traced)
    merged: Dict[str, Dict[str, float]] = {}
    for tracer, _result, scale in traced:
        for name, entry in tracer.by_name().items():
            into = merged.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                into[key] += value * scale if key.endswith("_s") else value

    def get(name: str, key: str) -> float:
        return merged.get(name, {}).get(key, 0) / count

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            entry["self_s"] for name, entry in merged.items()
            if name.split(".", 1)[0] == layer
        ) / count
    for name in COUNTED:
        metrics[f"{name}.calls"] = round(get(name, "calls"))
    for metric, name in SPAN_TOTALS.items():
        metrics[metric] = get(name, "total_s")

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    executed = get("cpu.execute_fast", "calls")
    metrics["caches.l1_hit_ratio"] = (
        1.0 - ratio(get("system.access_l1_missed", "calls"), executed) if executed else 0.0
    )
    metrics["caches.llc_hit_ratio"] = ratio(get("caches.sram_lookup", "hits"),
                                            get("caches.sram_lookup", "calls"))
    metrics["caches.dram_hit_ratio"] = ratio(get("caches.dram_probe", "hits"),
                                             get("caches.dram_probe", "calls"))
    first = traced[0][1]
    metrics["interconnect.bytes_per_access"] = ratio(first.inter_socket_bytes, first.accesses)
    traced_wall = statistics.median(result.wall_s * scale for _tracer, result, scale in traced)
    metrics["trace.overhead_frac"] = ratio(traced_wall, untraced_wall) - 1.0
    return metrics


def measure(workload, *, seed: Optional[int], seconds: float, trace: bool) -> Dict:
    """Run passes of ``workload`` for ``seconds`` and compute its metrics.

    Passes alternate untraced/traced under ``trace``; a pass starts only if
    its kind's mean duration so far fits in the time left, and at least one
    pass of each kind runs.  A pass's times are scaled by
    :func:`pass_scale` of the probes taken before each of its points.
    """
    from spans import Tracer, instrumented
    from workloads import model_metrics

    OUT_DIR.mkdir(exist_ok=True)
    clock = time.perf_counter
    plain: List[Tuple] = []
    traced: List[Tuple] = []
    durations: Dict[bool, List[float]] = {False: [], True: []}
    reference: Optional[Dict[str, str]] = None
    attempted = 0
    failures: List[str] = []
    marks: List[Tuple[float, float]] = []

    def probe() -> None:
        start = clock()
        marks.append((start, probe_s()))

    started = clock()
    while True:
        layered = trace and len(traced) < len(plain)
        done = bool(plain) and (bool(traced) or not trace)
        if done:
            expected = statistics.mean(durations[layered])
            if clock() - started + expected > seconds:
                break
        tracer = Tracer(layers=layered)
        gc.collect()
        begun = clock()
        first = len(marks)
        with instrumented(tracer):
            result = workload.run_pass(tracer, seed, OUT_DIR, probe)
        ended = clock()
        durations[layered].append(ended - begun)
        scale = pass_scale(marks[first:], ended)
        if reference is None:
            reference = dict(result.digests)
        for point, digest in result.digests.items():
            if reference.get(point, digest) != digest:
                result.fail(point, "statistics digest differs between passes")
        attempted += result.attempted
        failures.extend(f"{point}: {reason}" for point, reason in result.failures.items())
        (traced if layered else plain).append((tracer, result, scale))

    walls, setups, rates = [], [], []
    for tracer, result, scale in plain:
        setup, simulate = _pass_times(tracer, result)
        walls.append(result.wall_s * scale)
        setups.append(setup * scale)
        rates.append(result.accesses / (simulate * scale) if simulate > 0 else 0.0)
    wall = statistics.median(walls)
    metrics: Dict[str, float] = {
        "wall_s": wall,
        "sim_accesses_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        metrics.update(_layer_metrics(traced, wall))
        metrics["failed_frac"] = len(failures) / attempted if attempted else 0.0
        metrics.update(model_metrics(plain[0][1]))
    return {
        "metrics": metrics,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "attempted": attempted,
        "failures": failures,
        "digests": reference or {},
        "raw_wall_s": statistics.median(result.wall_s for _tracer, result, _scale in plain),
        "probe_s": [seconds for _start, seconds in marks],
        "pass_scale": [scale for _tracer, _result, scale in plain],
        "pass_wall_s": walls,
        "pass_setup_s": setups,
        "spans": [tracer.folded() for tracer, _result, _scale in traced],
        "times_ns": plain[0][1].times_ns,
    }


def _print_report(name: str, seed: Optional[int], trace: bool, run: Dict) -> None:
    metrics = run["metrics"]
    passes = run["passes"]
    print(f"perfbench {name}  seed={'spec' if seed is None else seed}  "
          f"passes: {passes['untraced']} untraced, {passes['traced']} traced")
    units = PER_LAYER if trace else END_TO_END
    if not trace:
        print(f"  (host time at the reference speed; medians over {passes['untraced']} "
              f"passes; unscaled wall_s {run['raw_wall_s']:.6g} s, speed probe median "
              f"{statistics.median(run['probe_s']):.4g} s against {PROBE_REFERENCE_S} s)")
    for metric, unit in units.items():
        print(f"  {metric:<34} {metrics[metric]:>16.6g} {unit}")
    if trace:
        rows = [(layer, metrics[f"{layer}.self_s"]) for layer in LAYERS]
        rows += [(span, metrics[f"{span}_s"]) for span in SETUP_SPANS]
        total = sum(value for _name, value in rows)
        print("  host self time per traced pass, by layer:")
        for layer, value in rows:
            share = 100.0 * value / total if total else 0.0
            print(f"    {layer:<18} {value:10.4f} s  {share:5.1f} %")
        print(f"  trace.overhead_frac {metrics['trace.overhead_frac']:.3f}; "
              "model.* figures are simulated time, paper C3D average 1.192, "
              "range 1.064-1.507")
    for failure in run["failures"][:10]:
        print(f"  FAILED {failure}")
    combined = hashlib.sha256(
        json.dumps(run["digests"], sort_keys=True).encode("utf-8")
    ).hexdigest()
    print(f"  stats digest over {len(run['digests'])} points: {combined}")


def main(argv: Optional[List[str]] = None, workloads: Optional[Dict] = None) -> int:
    """Run the benchmark; ``workloads`` overrides the workload table (tests)."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {source}/repro; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads as workload_module

    table = workloads or workload_module.WORKLOADS
    args = _parse(argv, table)
    trace = bool(args.trace)
    run = measure(table[args.workload], seed=args.seed, seconds=args.seconds, trace=trace)
    _print_report(args.workload, args.seed, trace, run)

    seed_tag = "spec" if args.seed is None else args.seed
    record = OUT_DIR / f"{args.workload}-seed{seed_tag}-trace{args.trace}.json"
    record.write_text(json.dumps(run, indent=1, sort_keys=True) + "\n")
    print(f"  results: {record}")

    units = PER_LAYER if trace else END_TO_END
    failed = len(run["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": run["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

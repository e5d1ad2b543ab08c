"""The benchmark's workloads: what one pass of each runs, and how it is checked.

A pass drives the simulator only through its public entry points --
``Simulator``, ``ExperimentContext`` (machine configurations),
``experiments.runner.run_sweep`` and ``ResultsStore`` -- and returns the host
time it took together with what it computed: one sha256 digest per simulated
point over ``SimulationStats.to_json_dict()``, and the simulated execution
times behind the ``model.*`` metrics.  Invariant checks and digests are taken
outside the timed region, and so is the host-speed ``probe`` a pass calls
before each point.

Why each workload (see README.md for the layer map and predictions):

* ``fig6-grid`` -- the paper's headline figure, all nine evaluated workloads
  x five designs, quad-socket, scale 1024, prewarmed, warm-up then measure.
  Most accesses miss L1, so the timed miss path dominates the simulate
  phase, and its 45 prewarms dominate set-up.
* ``l1-resident`` -- ``hotset`` at scale 1: nearly every access hits L1, so
  the core's hit path and the engine loop dominate.  The control on which
  miss-path work should change nothing.
* ``sampled-sweep`` -- facesim + cassandra x five designs under the sampled
  engine through ``run_sweep`` and a fresh results store: functional
  fast-forward through the state-only protocol mirrors, forked measurement
  windows, store writes (cold pass) and reads (warm pass).
"""

from __future__ import annotations

import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.common import DESIGNS, ExperimentContext, ExperimentSettings
from repro.experiments.fig6 import PAPER_C3D_SPEEDUP_AVG
from repro.experiments.runner import SweepPoint, run_sweep
from repro.stats.report import geometric_mean
from repro.stats.store import ResultsStore, content_key
from repro.system.numa_system import NumaSystem
from repro.system.simulator import Simulator
from repro.workloads import scenario
from repro.workloads.registry import EVALUATED_WORKLOADS

from spans import Tracer


@dataclass
class PassResult:
    """Host time and simulated outcome of one pass of a workload."""

    wall_s: float = 0.0
    #: Simulated accesses covered (``accesses_executed``, summed).
    accesses: int = 0
    #: Simulations attempted, and the failed ones: point -> first reason.
    attempted: int = 0
    failures: Dict[str, str] = field(default_factory=dict)
    #: ``workload/design`` -> stats digest.
    digests: Dict[str, str] = field(default_factory=dict)
    #: workload -> design -> simulated execution time (ns).
    times_ns: Dict[str, Dict[str, float]] = field(default_factory=dict)
    inter_socket_bytes: int = 0
    memory_accesses: int = 0
    remote_memory_accesses: int = 0

    def fail(self, point: str, reason: str) -> None:
        self.failures.setdefault(point, reason)

    def record(self, workload: str, design: str, result) -> None:
        stats = result.stats
        self.digests[f"{workload}/{design}"] = content_key(stats.to_json_dict())
        self.times_ns.setdefault(workload, {})[design] = result.total_time_ns
        self.accesses += result.accesses_executed
        self.inter_socket_bytes += result.inter_socket_bytes
        self.memory_accesses += stats.memory_accesses
        self.remote_memory_accesses += stats.memory_reads_remote + stats.memory_writes_remote


def _raised(exc: BaseException) -> str:
    return "raised " + traceback.format_exception_only(type(exc), exc)[-1].strip()


@dataclass(frozen=True)
class ExactGrid:
    """Workloads x designs, each point one exact ``Simulator`` run.

    Points run on the engine ``Simulator`` picks by default.  After each
    point ``NumaSystem.check_invariants()`` runs outside the timed region.
    """

    name: str
    workloads: Tuple[str, ...]
    designs: Tuple[str, ...]
    settings: ExperimentSettings

    def run_pass(self, tracer: Tracer, seed: Optional[int], scratch: Path,
                 probe: Callable[[], None]) -> PassResult:
        settings = replace(self.settings, seed=seed)
        context = ExperimentContext(settings)
        out = PassResult()
        clock = time.perf_counter
        for workload in self.workloads:
            for design in self.designs:
                point = f"{workload}/{design}"
                out.attempted += 1
                probe()
                start = clock()
                try:
                    system = NumaSystem(context.make_config(design))
                    built = scenario.build_workload(
                        num_sockets=settings.num_sockets,
                        cores_per_socket=settings.cores_per_socket,
                        workload=workload,
                        scale=settings.scale,
                        accesses_per_thread=settings.trace_length,
                        seed=seed,
                    )
                    result = Simulator(system, built).run(
                        warmup_accesses_per_core=settings.warmup_accesses_per_thread,
                        prewarm=settings.prewarm,
                    )
                except Exception as exc:  # a failing point is counted, not fatal
                    out.wall_s += clock() - start
                    out.fail(point, _raised(exc))
                    continue
                out.wall_s += clock() - start
                violations = system.check_invariants()
                if violations:
                    out.fail(point, f"{len(violations)} invariant violation(s), "
                                    f"first: {violations[0]}")
                out.record(workload, design, result)
        return out


@dataclass(frozen=True)
class SampledSweep:
    """Sampled sweep points through ``run_sweep`` and a fresh results store.

    The cold half simulates and ``put``s every point; the warm half re-runs
    the same points, which must all be store hits whose statistics are
    byte-identical to the cold ones.  Each point is its own ``run_sweep``
    call, so the speed probe can run between points.
    """

    name: str
    workloads: Tuple[str, ...]
    designs: Tuple[str, ...]
    scale: int
    accesses_per_thread: int
    warmup_accesses_per_thread: int
    sample_plan: str

    def points(self, seed: Optional[int]) -> List[SweepPoint]:
        return [
            SweepPoint(
                workload=workload,
                protocol=design,
                scale=self.scale,
                accesses_per_thread=self.accesses_per_thread,
                warmup_accesses_per_thread=self.warmup_accesses_per_thread,
                sample_plan=self.sample_plan,
                seed=seed,
            )
            for workload in self.workloads
            for design in self.designs
        ]

    def run_pass(self, tracer: Tracer, seed: Optional[int], scratch: Path,
                 probe: Callable[[], None]) -> PassResult:
        points = self.points(seed)
        out = PassResult(attempted=len(points))
        clock = time.perf_counter
        sweep = run_sweep
        store_dir = tempfile.mkdtemp(prefix="store-", dir=scratch)
        try:
            store = ResultsStore(store_dir)
            if tracer.layers:
                store.put = tracer.wrap(store.put, "stats.store_put")
                store.get = tracer.wrap(store.get, "stats.store_get")
                sweep = tracer.wrap(run_sweep, "experiments.run_sweep")
            for warm in (False, True):
                for point in points:
                    name = f"{point.workload}/{point.protocol}"
                    misses = store.misses
                    probe()
                    start = clock()
                    try:
                        result = sweep([point], store=store, engine="sampled")[0]
                    except Exception as exc:  # a failing point is counted, not fatal
                        out.wall_s += clock() - start
                        out.fail(name, _raised(exc))
                        continue
                    out.wall_s += clock() - start
                    if not warm:
                        out.record(point.workload, point.protocol, result)
                    elif store.misses != misses:
                        out.fail(name, "warm half missed the store")
                    elif content_key(result.stats.to_json_dict()) != out.digests.get(name):
                        out.fail(name, "stored statistics differ from the simulated ones")
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        return out


WORKLOADS = {
    "fig6-grid": ExactGrid(
        name="fig6-grid",
        workloads=tuple(EVALUATED_WORKLOADS),
        designs=DESIGNS,
        # Quick fidelity's machine (quad-socket, scale 1024, prewarmed) with
        # one fifth of its 1200+400 accesses per core, so three passes fit
        # into a run while the simulate phase stays close to set-up.
        settings=ExperimentSettings(
            scale=1024, accesses_per_thread=240, warmup_accesses_per_thread=80
        ),
    ),
    "l1-resident": ExactGrid(
        name="l1-resident",
        workloads=("hotset",),
        designs=("baseline", "c3d"),
        settings=ExperimentSettings(
            scale=1, accesses_per_thread=12000, warmup_accesses_per_thread=1200
        ),
    ),
    "sampled-sweep": SampledSweep(
        name="sampled-sweep",
        workloads=("facesim", "cassandra"),
        designs=DESIGNS,
        # Two short windows over a long region, so functional fast-forward
        # takes most of the simulate phase; scale 1024 as in fig6-grid.
        scale=1024,
        accesses_per_thread=1200,
        warmup_accesses_per_thread=100,
        sample_plan="units=2,detail=100,warmup=50",
    ),
}

#: The same workloads at a length the benchmark's own tests can afford.
TINY_WORKLOADS = {
    "fig6-grid": replace(
        WORKLOADS["fig6-grid"],
        workloads=("facesim", "streamcluster"),
        settings=ExperimentSettings(
            scale=4096, accesses_per_thread=40, warmup_accesses_per_thread=10,
            num_sockets=2, cores_per_socket=2,
        ),
    ),
    "l1-resident": replace(
        WORKLOADS["l1-resident"],
        settings=ExperimentSettings(
            scale=1, accesses_per_thread=400, warmup_accesses_per_thread=40,
            num_sockets=2, cores_per_socket=2,
        ),
    ),
    "sampled-sweep": replace(
        WORKLOADS["sampled-sweep"],
        designs=("baseline", "c3d", "snoopy"),
        scale=4096,
        accesses_per_thread=200,
        warmup_accesses_per_thread=20,
        sample_plan="units=2,detail=20,warmup=10",
    ),
}


# ----------------------------------------------------------------------
# Simulated-model metrics (simulated time, never gated)
# ----------------------------------------------------------------------


def speedups_over_baseline(times_ns: Dict[str, Dict[str, float]]) -> Dict[str, Dict]:
    """workload -> design -> baseline time / design time."""
    return {
        workload: {design: row["baseline"] / time for design, time in row.items() if time}
        for workload, row in times_ns.items()
        if row.get("baseline")
    }


def fig6_claims(speedups: Dict[str, Dict[str, float]]) -> Dict[str, bool]:
    """The Fig. 6 shape checks of ``benchmarks/test_fig6.py`` that apply.

    A check applies when the pass simulated every design it compares (and,
    for the streamcluster check, streamcluster itself).
    """
    have = set.intersection(*(set(row) for row in speedups.values())) if speedups else set()

    def geo(design: str) -> float:
        return geometric_mean(row[design] for row in speedups.values())

    claims: Dict[str, bool] = {}
    if "c3d" in have:
        claims["c3d beats the baseline on every workload"] = all(
            row["c3d"] > 1.0 for row in speedups.values()
        )
        claims["c3d geomean speedup > 1.05"] = geo("c3d") > 1.05
        if "streamcluster" in speedups:
            claims["streamcluster is c3d's biggest winner"] = (
                max(speedups, key=lambda w: speedups[w]["c3d"]) == "streamcluster"
            )
    if {"c3d", "c3d-full-dir"} <= have:
        claims["c3d-full-dir within 0.05 of c3d"] = abs(geo("c3d-full-dir") - geo("c3d")) < 0.05
    if {"snoopy", "full-dir"} <= have:
        claims["snoopy no better than full-dir"] = geo("snoopy") <= geo("full-dir")
    if {"c3d", "full-dir"} <= have:
        claims["full-dir never beats c3d"] = geo("c3d") >= geo("full-dir") - 0.01
    return claims


def model_metrics(result: PassResult) -> Dict[str, float]:
    """C3D's simulated speedup beside the paper's, and the memory-traffic split."""
    speedups = speedups_over_baseline(result.times_ns)
    geomean = geometric_mean(row["c3d"] for row in speedups.values() if "c3d" in row)
    return {
        "model.c3d_speedup_geomean": geomean,
        "model.c3d_speedup_err_vs_paper": (
            abs(geomean / PAPER_C3D_SPEEDUP_AVG - 1.0) if geomean else 0.0
        ),
        "model.fig6_claims_held": sum(fig6_claims(speedups).values()),
        "model.remote_memory_frac": (
            result.remote_memory_accesses / result.memory_accesses
            if result.memory_accesses else 0.0
        ),
    }

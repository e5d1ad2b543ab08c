"""Shared infrastructure for the paper-reproduction experiments.

Every experiment module (one per table/figure) builds on the same pieces:

* :class:`ExperimentSettings` -- how hard to scale the machine and how long
  to run each simulation.  The paper simulates 0.5-1 billion instructions
  per core on 32-core machines, which a pure-Python simulator cannot replay;
  the default settings scale capacities and working sets by 512x and replay a
  few thousand accesses per core after pre-warming the DRAM caches
  (docs/experiments.md, "Fidelity knobs", explains why this preserves the
  normalised results).
* :class:`ExperimentContext` -- builds systems/workloads, runs simulations
  (on either execution engine) and memoises results at two levels: an
  in-process cache so that e.g. Fig. 8 and Fig. 9 reuse the runs performed
  for Fig. 6 within one invocation, and -- when constructed with a
  :class:`~repro.stats.store.ResultsStore` -- a persistent on-disk cache
  shared across processes and invocations (docs/campaigns.md).  With
  ``offline=True`` the context never simulates: a missing stored run raises
  :class:`~repro.stats.store.MissingRunError` instead, which is how
  ``repro report`` regenerates every figure without re-simulating.
* small helpers for speedups and normalisation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from .. import engines
from ..stats.counters import SimulationStats
from ..stats.report import geometric_mean
from ..stats.store import (
    STORE_SCHEMA_VERSION,
    MissingRunError,
    ResultsStore,
    StoredRun,
    content_key,
)
from ..system.config import SystemConfig
from ..system.numa_system import NumaSystem
from ..system.simulator import SimulationResult, Simulator
from ..workloads.registry import EVALUATED_WORKLOADS, make_workload

__all__ = [
    "ExperimentSettings",
    "RunRecord",
    "ExperimentContext",
    "DESIGNS",
    "DRAM_CACHE_DESIGNS",
    "speedup",
    "geometric_mean",
]

#: The designs compared throughout the evaluation, in the paper's order.
DESIGNS: Tuple[str, ...] = ("baseline", "snoopy", "full-dir", "c3d", "c3d-full-dir")
#: The DRAM-cache designs (everything but the baseline).
DRAM_CACHE_DESIGNS: Tuple[str, ...] = ("snoopy", "full-dir", "c3d", "c3d-full-dir")


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs controlling experiment fidelity vs. runtime.

    ``scale`` divides every cache capacity *and* workload working set by the
    same factor (hit rates, and therefore normalised results, are preserved);
    the access counts are per core, with ``warmup_accesses_per_thread``
    excluded from measurement.  Settings objects are frozen and hashable:
    every field reaches the results-store key, which is also the in-process
    memoisation key, so two runs with equal settings are interchangeable.
    """

    scale: int = 512
    accesses_per_thread: int = 3000
    warmup_accesses_per_thread: int = 1000
    num_sockets: int = 4
    cores_per_socket: int = 8
    prewarm: bool = True
    allocation_policy: str = "first_touch"
    seed: Optional[int] = None

    @classmethod
    def quick(cls) -> "ExperimentSettings":
        """Fast settings for CI / pytest-benchmark runs (seconds per run)."""
        return cls(scale=1024, accesses_per_thread=1200, warmup_accesses_per_thread=400)

    @classmethod
    def full(cls) -> "ExperimentSettings":
        """Higher-fidelity settings: the runner's ``--full`` (docs/experiments.md)."""
        return cls(scale=512, accesses_per_thread=6000, warmup_accesses_per_thread=2000)

    def dual_socket(self) -> "ExperimentSettings":
        """The 2-socket, 16-core/socket variant of these settings (Fig. 7)."""
        return replace(self, num_sockets=2, cores_per_socket=16)

    @property
    def total_cores(self) -> int:
        """Total simulated cores (``num_sockets * cores_per_socket``)."""
        return self.num_sockets * self.cores_per_socket

    @property
    def trace_length(self) -> int:
        """Accesses generated per core (measured + warm-up)."""
        return self.accesses_per_thread + self.warmup_accesses_per_thread


@dataclass
class RunRecord:
    """One simulation run plus the derived quantities experiments report.

    Records come either from a fresh simulation or from the results store;
    the two are indistinguishable to the figure modules (statistics
    round-trip bit-identically).
    """

    workload: str
    protocol: str
    stats: SimulationStats
    result: SimulationResult
    config: SystemConfig

    @property
    def total_time_ns(self) -> float:
        """Simulated completion time of the slowest core (the makespan)."""
        return self.result.total_time_ns

    @property
    def inter_socket_bytes(self) -> int:
        """Bytes that crossed the inter-socket links during measurement."""
        return self.result.inter_socket_bytes

    @property
    def memory_accesses(self) -> int:
        """Main-memory accesses (reads + writes, local + remote)."""
        return self.stats.memory_accesses


def speedup(baseline: RunRecord, other: RunRecord) -> float:
    """Execution-time speedup of ``other`` relative to ``baseline``."""
    if other.total_time_ns == 0:
        return float("nan")
    return baseline.total_time_ns / other.total_time_ns


class ExperimentContext:
    """Builds, runs and memoises simulations for the experiment modules.

    Parameters
    ----------
    settings:
        Fidelity knobs shared by every run of this context.
    store:
        Optional :class:`~repro.stats.store.ResultsStore`.  When given, every
        run is first looked up by its content key (and persisted after
        simulating), so results are shared across worker processes and
        across invocations -- not just within this object's lifetime.
    offline:
        Never simulate; raise :class:`~repro.stats.store.MissingRunError`
        for any run not already in ``store``.  Requires ``store``.
    engine:
        Execution engine, validated against the :mod:`repro.engines`
        registry; part of the store key because engines are only *verified*
        bit-identical, not assumed.
    """

    def __init__(
        self,
        settings: Optional[ExperimentSettings] = None,
        *,
        store: Optional[ResultsStore] = None,
        offline: bool = False,
        engine: str = "compiled",
    ) -> None:
        if offline and store is None:
            raise ValueError("offline=True requires a results store")
        engines.validate(engine)
        self.settings = settings or ExperimentSettings()
        self.store = store
        self.offline = offline
        self.engine = engine
        self._cache: Dict[str, RunRecord] = {}

    # ------------------------------------------------------------------
    # Configuration / workload construction
    # ------------------------------------------------------------------

    def make_config(self, protocol: str, **overrides) -> SystemConfig:
        """Build the (scaled) machine configuration for one design."""
        settings = self.settings
        if settings.num_sockets == 2:
            config = SystemConfig.dual_socket(protocol=protocol)
        else:
            config = SystemConfig.quad_socket(protocol=protocol)
        config = replace(
            config,
            num_sockets=settings.num_sockets,
            cores_per_socket=settings.cores_per_socket,
            allocation_policy=settings.allocation_policy,
        )
        if overrides:
            config = replace(config, **overrides)
        return config.scaled(settings.scale)

    def make_workload(self, name: str):
        """Build the (scaled) workload generator for one benchmark."""
        settings = self.settings
        return make_workload(
            name,
            scale=settings.scale,
            accesses_per_thread=settings.trace_length,
            num_threads=settings.total_cores,
            seed=settings.seed,
        )

    # ------------------------------------------------------------------
    # Persistent-store keying
    # ------------------------------------------------------------------

    def store_payload(self, workload_name: str, protocol: str,
                      config: SystemConfig) -> Dict:
        """The outcome-determining payload hashed into a run's store key.

        Everything that can change the simulation's statistics is included:
        the complete machine configuration (capacities after scaling,
        idealisations, broadcast filter, ...), the workload build parameters,
        the measurement split, the engine and the store schema version.
        Changing any of these invalidates the cached point; see
        docs/campaigns.md for the field-by-field semantics.
        """
        settings = self.settings
        run_params = {
            "warmup_accesses_per_core": settings.warmup_accesses_per_thread,
            "prewarm": settings.prewarm,
        }
        if config.broadcast_filter and settings.prewarm:
            # See sweep_point_payload: re-keys only the runs whose statistics
            # changed when prewarm began classifying its pages shared.
            run_params["prewarm_marks_shared"] = True
        return {
            "kind": "context-run",
            "schema": STORE_SCHEMA_VERSION,
            "engine": self.engine,
            "workload": workload_name,
            "protocol": protocol,
            "config": config.as_dict(),
            "workload_params": {
                "scale": settings.scale,
                "accesses_per_thread": settings.trace_length,
                "num_threads": settings.total_cores,
                "seed": settings.seed,
            },
            "run_params": run_params,
        }

    def _record_from_stored(self, workload_name: str, protocol: str,
                            config: SystemConfig, stored: StoredRun) -> RunRecord:
        """Materialise a :class:`RunRecord` from a persisted run."""
        result = SimulationResult(
            stats=stored.stats,
            total_time_ns=stored.total_time_ns,
            inter_socket_bytes=stored.inter_socket_bytes,
            accesses_executed=stored.accesses_executed,
        )
        return RunRecord(
            workload=workload_name, protocol=protocol,
            stats=stored.stats, result=result, config=config,
        )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, workload_name: str, protocol: str, *,
            config: Optional[SystemConfig] = None) -> RunRecord:
        """Run one (workload, design) simulation, memoising the result.

        Lookup order: the in-process cache, then the results store (if any),
        then a fresh simulation (which is persisted to the store).  Both are
        keyed on the content key of :meth:`store_payload`, which hashes the
        full scaled configuration, so two configurations with equal content
        share one record however the caller built them.
        """
        cfg = config if config is not None else self.make_config(protocol)
        payload = self.store_payload(workload_name, protocol, cfg)
        key = content_key(payload)
        record = self._cache.get(key)
        if record is not None:
            return record
        if self.store is not None:
            stored = self.store.get(key)
            if stored is not None:
                record = self._record_from_stored(workload_name, protocol, cfg, stored)
                self._cache[key] = record
                return record
        if self.offline:
            raise MissingRunError(key, payload)

        system = NumaSystem(cfg)
        workload = self.make_workload(workload_name)
        simulator = Simulator(system, workload, engine=self.engine)
        result = simulator.run(
            warmup_accesses_per_core=self.settings.warmup_accesses_per_thread,
            prewarm=self.settings.prewarm,
        )
        record = RunRecord(
            workload=workload_name, protocol=protocol,
            stats=result.stats, result=result, config=cfg,
        )
        if self.store is not None:
            self.store.put(StoredRun(
                key=key,
                params=payload,
                stats=result.stats,
                total_time_ns=result.total_time_ns,
                inter_socket_bytes=result.inter_socket_bytes,
                accesses_executed=result.accesses_executed,
            ))
        self._cache[key] = record
        return record

    def workloads(self) -> List[str]:
        """The evaluated workloads, in the paper's plotting order."""
        return list(EVALUATED_WORKLOADS)

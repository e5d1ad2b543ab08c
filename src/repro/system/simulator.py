"""Trace-driven simulation driver: orchestration over pluggable engines.

The :class:`Simulator` owns one run's lifecycle -- resolve the requested
execution engine through the :mod:`repro.engines` registry, apply the
first-touch page-placement hints and the optional DRAM-cache pre-warm, hand
an :class:`~repro.engines.EngineContext` to the engine, and return its
:class:`~repro.engines.SimulationResult`.  How the access streams actually
drive the machine (object-at-a-time, compiled arrays, statistical sampling)
is entirely the engine's business; see :mod:`repro.engines` and
docs/architecture.md ("Execution engines").

A simulation optionally starts with a warm-up phase (the paper warms the
DRAM caches with 100 M accesses before measuring); at the end of warm-up the
statistics are reset while all cache/directory contents are preserved.
"""

from __future__ import annotations

from typing import Optional

from .. import engines
from ..engines import EngineContext, SimulationResult
from ..stats.sampling import SamplingPlan

__all__ = ["Simulator", "SimulationResult"]


class Simulator:
    """Drives a :class:`~repro.system.numa_system.NumaSystem` with a workload."""

    def __init__(
        self,
        system,
        workload,
        *,
        engine: str = "compiled",
        sample_plan: Optional[SamplingPlan] = None,
    ) -> None:
        #: Resolved engine instance (registry authority -- unknown names
        #: raise a ``ValueError`` listing the registered engines).
        self.engine_impl = engines.get(engine)()
        if sample_plan is not None and not self.engine_impl.supports_sampling:
            raise ValueError(
                f"sample_plan requires an engine with sampling support "
                f"(e.g. 'sampled'), got engine={engine!r}"
            )
        self.system = system
        self.workload = workload
        self.engine = engine
        #: Plan for sampling engines; ``None`` derives one from the measured
        #: region length (:meth:`SamplingPlan.for_region`).
        self.sample_plan = sample_plan

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self,
        *,
        max_accesses_per_core: Optional[int] = None,
        warmup_accesses_per_core: int = 0,
        prewarm: bool = False,
    ) -> SimulationResult:
        """Run the workload to completion (or to the per-core access limits).

        ``warmup_accesses_per_core`` accesses per core are executed first with
        full architectural effect but without counting toward the reported
        statistics or the measured execution time.  ``prewarm`` additionally
        pre-loads the DRAM caches with the workload's shared data before the
        run starts (the affordable equivalent of the paper's 100 M-access
        warm-up phase; see :meth:`EngineContext.prewarm_dram_caches`).
        """
        context = self._context()
        context.prepare_first_touch()
        if prewarm:
            context.prewarm_dram_caches()
        return self.engine_impl.run(
            context,
            max_accesses_per_core=max_accesses_per_core,
            warmup_accesses_per_core=warmup_accesses_per_core,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _context(self) -> EngineContext:
        return EngineContext(self.system, self.workload, sample_plan=self.sample_plan)

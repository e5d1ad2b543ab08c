"""Execution engines for the C3D reproduction's simulator.

An *execution engine* decides how a workload's access streams drive the
simulated machine: the exact engines replay every access in full detail,
the sampled engine alternates functional fast-forward with measured detail
windows.  The :class:`~repro.engines.base.ExecutionEngine` interface plus
the :class:`~repro.engines.base.EngineContext` (shared per-run setup) keep
each engine down to its scheduling strategy, and the registry resolves its
name for every layer at once (`Simulator(engine=...)`, ``--engine``,
sweep points, campaign specs).

The engines (names are part of the results-store key contract and stable):

=============  ======================================================
``compiled``   Array-backed traces through the lean dispatch loop
               (the default; docs/performance.md).
``object``     One ``MemoryAccess`` object at a time -- the seed-style
               reference engine the others are verified against.
``sampled``    SMARTS-style statistical sampling: batched functional
               fast-forward + measured detail windows with per-metric
               confidence intervals (docs/sampling.md).
=============  ======================================================

See docs/architecture.md ("Execution engines") for the interface.
"""

from .base import (
    EngineContext,
    ExecutionEngine,
    SimulationResult,
    functional_timing,
    scratch_stats,
)
from .exact import CompiledEngine, ObjectEngine
from .registry import get, names, validate
from .sampled import SampledEngine

__all__ = [
    "ExecutionEngine",
    "EngineContext",
    "SimulationResult",
    "CompiledEngine",
    "ObjectEngine",
    "SampledEngine",
    "get",
    "names",
    "validate",
    "scratch_stats",
    "functional_timing",
]

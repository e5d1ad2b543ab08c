"""The two exact engines: ``compiled`` (fast path) and ``object`` (reference).

Both replay every access of the measured region in full detail and are
verified bit-identical to each other for all five coherence designs
(``tests/system/test_engine_equivalence.py``); the ``compiled`` engine is a
pure performance transformation (array-backed traces, lean dispatch loop --
docs/performance.md), the ``object`` engine is the seed-style
one-``MemoryAccess``-at-a-time generator path kept as the semantic
reference.
"""

from __future__ import annotations

from typing import Optional

from .base import EngineContext, ExecutionEngine, SimulationResult

__all__ = ["CompiledEngine", "ObjectEngine"]


class CompiledEngine(ExecutionEngine):
    """Array-backed traces through the lean dispatch loop (the default)."""

    name = "compiled"

    def run(
        self,
        context: EngineContext,
        *,
        max_accesses_per_core: Optional[int] = None,
        warmup_accesses_per_core: int = 0,
    ) -> SimulationResult:
        traces = context.compile_streams()
        if not traces:
            return context.empty_result()
        cursors = {core_id: 0 for core_id in traces}
        if warmup_accesses_per_core > 0:
            context.run_phase_compiled(traces, cursors, warmup_accesses_per_core)
            context.system.reset_measurement()
        warmup_offsets = context.core_times(traces)
        executed = context.run_phase_compiled(traces, cursors, max_accesses_per_core)
        return context.finalize(traces, warmup_offsets, executed)


class ObjectEngine(ExecutionEngine):
    """One ``MemoryAccess`` object at a time (the legacy reference engine)."""

    name = "object"

    def run(
        self,
        context: EngineContext,
        *,
        max_accesses_per_core: Optional[int] = None,
        warmup_accesses_per_core: int = 0,
    ) -> SimulationResult:
        streams = context.open_streams()
        if not streams:
            return context.empty_result()
        if warmup_accesses_per_core > 0:
            context.run_phase_object(streams, warmup_accesses_per_core)
            context.system.reset_measurement()
        warmup_offsets = context.core_times(streams)
        executed = context.run_phase_object(streams, max_accesses_per_core)
        return context.finalize(streams, warmup_offsets, executed)

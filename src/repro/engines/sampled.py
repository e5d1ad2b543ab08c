"""The ``sampled`` engine: SMARTS-style statistical sampling on compiled traces.

The measured region is covered by a :class:`~repro.stats.sampling.SamplingPlan`'s
units: functional **fast-forward** (state advances, no timing), detailed but
unmeasured **warm-up**, and measured **detail** windows whose per-window
counter deltas become the observations behind the per-metric confidence
intervals (docs/sampling.md).

The fast-forward phase runs directly on the compiled-trace batches: each
core's slice of the trace arrays is walked with the L1 hit paths (read *and*
write) inlined, first-touch page placement short-circuited for
already-placed pages, and everything below the L1 routed through
:meth:`~repro.system.socket.Socket.access_functional`, which drives each
coherence design's own state-only ``*_functional`` mirrors: no send, memory
call, latency arithmetic or counter per miss.  This is what makes
fast-forward substantially cheaper per access than a detail window while
leaving bit-identical architectural state behind
(``tests/engines/test_functional_mirrors.py`` compares every design's
mirrors against the timed handlers; ``tests/system/test_sampling.py`` and
``tools/check_sampling.py`` validate the resulting estimates against exact
runs).

Measurement windows are *isolated*: the engine's persistent chain advances
functionally through the whole region, and each warmup+detail window runs in
a copy-on-write forked child seeded with the chain state at the window's
start, shipping its counter deltas back as a
:class:`~repro.stats.sampling.WindowOutcome`.  The parent does not wait for
that child: it walks on over the window's span and the next unit's
fast-forward while the child measures, so on a second CPU the detailed
window costs the walk almost nothing.  At most one window child is
outstanding; the parent collects its outcome just before it forks the next
one, or after the last unit.  The one exception is the *last* measured
window of a walk, which runs inline on the chain itself: detailed execution
is state-exact with functional execution and nothing after the final window
reads the chain again, so the outcome is identical and the fork is saved.
Every window is therefore a pure function of the functional prefix before
it, whenever its outcome arrives.
"""

from __future__ import annotations

import copy
import os
import pickle
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..caches.sram_cache import DIRTY, MODIFIED
from ..stats.counters import SimulationStats
from ..stats.sampling import (
    SampledSimulationStats,
    SamplingPlan,
    SamplingSummary,
    SamplingUnit,
    WindowOutcome,
    estimate_metrics,
    merge_window_outcomes,
)
from ..workloads.compiled import CompiledTrace
from .base import EngineContext, ExecutionEngine, SimulationResult

__all__ = ["SampledEngine"]

#: Test/diagnostic switch: force the deepcopy (non-fork) window isolation
#: path even on platforms where ``os.fork`` is available.
_FORCE_COPY_ISOLATION = False


def _run_window_counted(
    context: EngineContext,
    traces: Dict[int, CompiledTrace],
    cursors: Dict[int, int],
    unit: SamplingUnit,
    index: int,
) -> Tuple[Optional[WindowOutcome], int]:
    """Measure one warmup+detail window, consuming its span from ``cursors``.

    Runs the warmup segment under scratch statistics, then the detail
    segment onto a fresh zeroed stats object whose counters become the
    window's deltas.  The outcome is ``None`` when every trace was exhausted
    before the detail segment (the serial engine's historical skip
    semantics); the second element is the number of accesses executed, equal
    to what a functional pass over the same span would have advanced.
    """
    system = context.system
    warmup_executed = 0
    if unit.warmup:
        with context.scratch_stats():
            warmup_executed = context.run_phase_compiled(
                traces, cursors, unit.warmup
            )
    window_stats = SimulationStats()
    saved_stats = system.stats
    system.stats = window_stats
    interconnect = system.interconnect
    bytes_before = interconnect.bytes_sent
    cores = system.cores
    starts = {core_id: cores[core_id].time for core_id in traces}
    try:
        detail_executed = context.run_phase_compiled(traces, cursors, unit.detail)
    finally:
        system.stats = saved_stats
    executed = warmup_executed + detail_executed
    if not detail_executed:
        return None, executed
    outcome = WindowOutcome(
        unit_index=index,
        detail_executed=detail_executed,
        stats=window_stats,
        inter_socket_bytes=interconnect.bytes_sent - bytes_before,
        detail_elapsed={
            core_id: cores[core_id].time - starts[core_id] for core_id in traces
        },
    )
    return outcome, executed


def _run_window(
    context: EngineContext,
    traces: Dict[int, CompiledTrace],
    cursors: Dict[int, int],
    unit: SamplingUnit,
    index: int,
) -> Optional[WindowOutcome]:
    """Measure one window on (an isolated copy of) ``context``."""
    return _run_window_counted(context, traces, cursors, unit, index)[0]


def _run_window_on_copy(
    context: EngineContext,
    traces: Dict[int, CompiledTrace],
    cursors: Dict[int, int],
    unit: SamplingUnit,
    index: int,
) -> Optional[WindowOutcome]:
    """Measure one window on a deep copy of the chain state: slower than a
    forked child, but state-identical, which the equivalence tests assert."""
    system_copy, cursors_copy = copy.deepcopy((context.system, cursors))
    isolated = EngineContext(
        system_copy, context.workload, sample_plan=context.sample_plan
    )
    return _run_window(isolated, traces, cursors_copy, unit, index)


class _WindowChild(NamedTuple):
    """A forked child measuring one window: its unit, pid and pipe read end."""

    index: int
    pid: int
    read_fd: int


class SampledEngine(ExecutionEngine):
    """Compiled detail windows + batched functional fast-forward."""

    name = "sampled"
    supports_sampling = True

    #: Accesses each core advances per turn of the functional round-robin.
    #: Coarser than the timed engines' per-access interleave, which is fine:
    #: fast-forward is approximate by design (no timing), and the chunking
    #: amortises the scheduling overhead the phase exists to avoid.
    _FUNCTIONAL_CHUNK = 32

    def run(
        self,
        context: EngineContext,
        *,
        max_accesses_per_core: Optional[int] = None,
        warmup_accesses_per_core: int = 0,
    ) -> SimulationResult:
        """Drive the compiled loop through the sampling plan.

        The run-level warm-up (``warmup_accesses_per_core``) executes in full
        detail with blacked-out statistics, exactly like the exact engines.
        The measured region is then covered by the plan's units.

        ``accesses_executed`` counts every access the measured region
        *covered* (fast-forwarded, warm-up and detail alike) so that
        accesses/second is directly comparable with an exact run over the
        same trace.
        """
        system = context.system
        traces = context.compile_streams()
        plan = context.sample_plan
        if not traces:
            stats = SampledSimulationStats(
                SamplingSummary(plan=plan or SamplingPlan())
            )
            system.stats = stats
            return SimulationResult(stats, 0.0, 0, 0)
        cursors = {core_id: 0 for core_id in traces}
        if warmup_accesses_per_core > 0:
            with context.scratch_stats():
                context.run_phase_compiled(traces, cursors, warmup_accesses_per_core)

        # The sampled analogue of reset_measurement(): fresh (sampled)
        # counters, preserved cache/directory/timing state.
        stats = SampledSimulationStats()
        system.stats = stats
        interconnect = system.interconnect
        interconnect.reset_counters()

        region = max(traces[cid].length - cursors[cid] for cid in traces)
        if max_accesses_per_core is not None:
            region = min(region, max_accesses_per_core)
        if plan is None:
            plan = SamplingPlan.for_region(region)
        units = plan.units(region)

        outcomes, executed = self._walk_units(context, traces, cursors, units)
        samples, detail_total, inter_socket_bytes, _ = merge_window_outcomes(
            stats, outcomes, list(traces)
        )
        summary = SamplingSummary(
            plan=plan,
            detail_accesses=detail_total,
            covered_accesses=executed,
        )
        if len(samples) >= 2:
            summary.metrics = estimate_metrics(
                samples, confidence=plan.confidence, bias_floor=plan.bias_floor
            )
        stats.sampling = summary
        return SimulationResult(
            stats=stats,
            total_time_ns=stats.total_time_ns(),
            inter_socket_bytes=inter_socket_bytes,
            accesses_executed=executed,
        )

    # ------------------------------------------------------------------
    # Unit execution: the functional chain + isolated window measurement
    # ------------------------------------------------------------------

    def _walk_units(
        self,
        context: EngineContext,
        traces: Dict[int, CompiledTrace],
        cursors: Dict[int, int],
        units: Sequence[SamplingUnit],
    ) -> Tuple[List[WindowOutcome], int]:
        """Advance the functional chain over ``units``, measuring each window.

        The chain itself is purely functional: every unit's fast-forward
        *and* its warmup+detail span advance as one ``run_phase_functional``
        call each.  Windows are measured on forked copies of the chain
        state, never on the chain, so a window's outcome depends neither on
        how far the chain continues nor on when it is collected.  The parent
        walks while one window child measures: it forks the child at the
        window's start (:meth:`_start_window`), walks the window's span and
        the next unit's fast-forward, and collects the outcome
        (:meth:`_measure_window`) just before the next fork or after the
        last unit; outcomes are merged in unit order whatever order they
        arrive in.  A child still outstanding when the walk raises is reaped
        before the exception propagates.

        The *last* measured window of the walk runs inline on the chain
        itself, no isolation: its outcome is computed by the same phase
        calls from the same state either way, and nothing after it reads
        the timing residue it leaves behind (detailed execution is
        state-exact with functional execution, so any trailing fast-forward
        advances identically).  A one-window plan is therefore fork-free.
        Under deep-copy isolation (no ``os.fork``) every other window is
        measured on a copy before the walk moves on.
        """
        copy_isolation = _FORCE_COPY_ISOLATION or os.name != "posix"
        executed = 0
        outcomes: List[Optional[WindowOutcome]] = []
        last_measured = next(
            (index for index in range(len(units) - 1, -1, -1) if units[index].detail),
            None,
        )
        child: Optional[_WindowChild] = None
        try:
            for index, unit in enumerate(units):
                if unit.fastforward:
                    with context.scratch_stats(), context.functional_timing():
                        executed += self.run_phase_functional(
                            context, traces, cursors, unit.fastforward
                        )
                span = unit.warmup + unit.detail
                if not span:
                    continue
                if index == last_measured:
                    # Inline: the window's warmup+detail advance the chain
                    # cursors themselves, so the span is consumed -- no
                    # functional pass over it.
                    outcome, advanced = _run_window_counted(
                        context, traces, cursors, unit, index
                    )
                    outcomes.append(outcome)
                    executed += advanced
                    continue
                if unit.detail:
                    if child is not None:
                        # Cleared first: _measure_window reaps the child even
                        # when it raises, so the handler below must not.
                        finished, child = child, None
                        outcomes.append(self._measure_window(finished))
                    if copy_isolation:
                        outcomes.append(
                            _run_window_on_copy(context, traces, cursors, unit, index)
                        )
                    else:
                        child = self._start_window(context, traces, cursors, unit, index)
                with context.scratch_stats(), context.functional_timing():
                    executed += self.run_phase_functional(context, traces, cursors, span)
        except BaseException:
            if child is not None:
                # Closing the pipe first ends a child blocked writing its
                # payload (EPIPE), so the wait is at most one window long.
                os.close(child.read_fd)
                os.waitpid(child.pid, 0)
            raise
        if child is not None:
            outcomes.append(self._measure_window(child))
        return [outcome for outcome in outcomes if outcome is not None], executed

    def _start_window(
        self,
        context: EngineContext,
        traces: Dict[int, CompiledTrace],
        cursors: Dict[int, int],
        unit: SamplingUnit,
        index: int,
    ) -> _WindowChild:
        """Fork a child that measures one window from the chain's state now.

        The child runs the window on its copy-on-write image of the chain
        and pickles its :class:`WindowOutcome` back through a pipe while the
        parent walks on; :meth:`_measure_window` collects it.  ``os.fork``
        is used directly rather than ``multiprocessing.Process`` so the
        measurement works inside daemonic campaign workers too (daemons may
        not spawn multiprocessing children).
        """
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child process exits before coverage flush
            status = 0
            try:
                os.close(read_fd)
                outcome = _run_window(context, traces, dict(cursors), unit, index)
                payload = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(payload)
            except BaseException:
                status = 70
            finally:
                # Skip interpreter teardown: the child must not run the
                # parent's atexit hooks or flush its inherited buffers.
                os._exit(status)
        os.close(write_fd)
        return _WindowChild(index, pid, read_fd)

    def _measure_window(self, child: _WindowChild) -> Optional[WindowOutcome]:
        """Wait for a window child's :class:`WindowOutcome` and reap the child.

        The parent blocks here, and only here, on a measuring child.  The
        pipe is read to EOF before ``waitpid`` (a payload larger than the
        pipe buffer keeps the child in its write until the parent reads),
        and the child is reaped on every path, a failed child included.
        """
        try:
            with os.fdopen(child.read_fd, "rb") as pipe:
                payload = pipe.read()
        finally:
            _, status = os.waitpid(child.pid, 0)
        if status != 0 or not payload:
            raise RuntimeError(
                f"window measurement child for unit {child.index} failed "
                f"(wait status {status})"
            )
        return pickle.loads(payload)

    # ------------------------------------------------------------------
    # Functional fast-forward on compiled-trace batches
    # ------------------------------------------------------------------

    def run_phase_functional(
        self,
        context: EngineContext,
        traces: Dict[int, CompiledTrace],
        cursors: Dict[int, int],
        limit_per_core: Optional[int],
    ) -> int:
        """Advance every compiled trace functionally: state, no timing.

        Each round-robin turn walks one ``_FUNCTIONAL_CHUNK``-sized slice of
        a core's trace arrays (a single ``zip`` over the column slices --
        no per-access indexing).  First-touch page placement and the
        broadcast-filter classifier see every access (they are
        order-dependent and must not skip), but the placement call is
        short-circuited for already-placed pages (the policies are
        idempotent, so the skip is state-identical).  L1 read hits are an
        inlined recency update and L1 write hits to Modified lines an
        inlined dirty-bit update; everything else goes through
        :meth:`Socket.access_functional` -- the state-exact mirror of the
        demand path.  Callers wrap this phase in ``scratch_stats`` and
        ``functional_timing`` so neither statistics nor busy-until state
        advance: the designs' lean mirrors send and count nothing, and the
        generic fallback the mirror test swaps in runs the timed handlers.
        """
        system = context.system
        classifier = system.page_classifier
        record_access = classifier.record_access if classifier is not None else None
        mapper = system.mapper
        home_of_page = mapper.policy.home_of_page
        touched_pages = mapper._touched_pages
        config = system.config

        states = []
        for core_id, trace in traces.items():
            start = cursors[core_id]
            end = trace.length if limit_per_core is None else min(
                trace.length, start + limit_per_core
            )
            if start >= end:
                continue
            core = system.cores[core_id]
            socket = system.sockets[config.socket_of_core(core_id)]
            l1 = socket.l1s[core.local_index]
            states.append((
                core_id,
                trace.blocks,
                trace.pages,
                trace.addrs,
                trace.writes,
                end,
                core.local_index,
                core.thread_id,
                socket.access_functional,
                l1._sets,
                l1.num_sets,
                socket.socket_id,
            ))

        executed = 0
        chunk = self._FUNCTIONAL_CHUNK
        active = states
        while active:
            next_active = []
            for state in active:
                (core_id, blocks, pages, addrs, writes, end,
                 local_index, thread_id, access_functional, l1_sets,
                 num_sets, socket_id) = state
                i = cursors[core_id]
                stop = min(end, i + chunk)
                executed += stop - i
                for block, page, write, addr in zip(
                    blocks[i:stop], pages[i:stop], writes[i:stop], addrs[i:stop]
                ):
                    if page not in touched_pages:
                        touched_pages[page] = home_of_page(page, socket_id)
                    if record_access is not None:
                        record_access(thread_id, addr)
                    cache_set = l1_sets.get(block % num_sets)
                    line = cache_set.get(block) if cache_set is not None else None
                    if line is None:
                        access_functional(local_index, block, write, thread_id)
                    elif not write:
                        # Inlined L1 read-hit path (recency only).
                        del cache_set[block]
                        cache_set[block] = line
                    elif line & MODIFIED:
                        # Inlined L1 write-hit path: recency + dirty bit
                        # (the LLC line is Modified and dirty already).
                        del cache_set[block]
                        cache_set[block] = line | DIRTY
                    else:
                        access_functional(local_index, block, True, thread_id)
                cursors[core_id] = stop
                if stop < end:
                    next_active.append(state)
            active = next_active
        return executed

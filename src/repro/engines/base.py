"""The execution-engine interface and the shared per-run machinery.

An :class:`ExecutionEngine` is a strategy for driving a
:class:`~repro.system.numa_system.NumaSystem` with a workload's access
streams.  The repository has three (``compiled``, ``object``, ``sampled``
-- see :mod:`repro.engines`).

Engines are stateless: everything one *run* needs -- the system, the
workload, stream opening/compilation, first-touch page placement, DRAM-cache
pre-warming, the phase loops and the result assembly -- lives in the
:class:`EngineContext` the :class:`~repro.system.simulator.Simulator` builds
per run and hands to :meth:`ExecutionEngine.run`.  That shared setup used to
be duplicated across the per-engine private methods of a monolithic
``Simulator``; centralising it here is what keeps a new engine small.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, Iterator, Optional, Tuple

from ..caches.dram_cache import DRAMCache
from ..stats.counters import SimulationStats
from ..workloads.compiled import CompiledTrace, compile_trace
from ..workloads.trace import MemoryAccess

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..stats.sampling import SamplingPlan
    from ..system.numa_system import NumaSystem

__all__ = [
    "SimulationResult",
    "EngineContext",
    "ExecutionEngine",
    "scratch_stats",
    "functional_timing",
]


@dataclass
class SimulationResult:
    """Everything an experiment needs from one simulation run."""

    stats: SimulationStats
    total_time_ns: float
    inter_socket_bytes: int
    accesses_executed: int

    @property
    def amat_ns(self) -> float:
        return self.stats.amat_ns()


@contextmanager
def scratch_stats(system: "NumaSystem"):
    """Swap the system statistics for a throw-away object, then restore.

    Assigning ``system.stats`` re-points the reference every socket and the
    protocol read per access (cores read their socket's), so a swap is a
    complete measurement blackout: warm-up windows advance every
    architectural and timing structure while the measured counters stay
    untouched.
    """
    real = system.stats
    system.stats = SimulationStats()
    try:
        yield
    finally:
        system.stats = real


@contextmanager
def functional_timing(system: "NumaSystem"):
    """Stub the timing models out while leaving every state update intact.

    Inside this context the interconnect's ``send`` and each memory
    controller's ``read_fast``/``write_fast`` return zero latency and mutate
    no busy-until bandwidth state, so the coherence protocols can run their
    normal (state-exact) transaction logic during fast-forward without
    polluting channel/link occupancy for the detailed windows that follow.
    Every design's lean ``*_functional`` mirrors skip the timing calls
    entirely; this context is what keeps the *generic* mirror fallback, the
    reference the mirror test runs, state-exact too.
    """

    def _zero_send(now, src, dst, message_class):
        return 0.0

    def _zero_memory(now, block):
        return 0.0

    stubs = [(system.interconnect, "send", _zero_send),
             (system.protocol, "_net_send", _zero_send)]
    for sock in system.sockets:
        stubs.append((sock.memory, "read_fast", _zero_memory))
        stubs.append((sock.memory, "write_fast", _zero_memory))
    # Restore what each instance itself held: an instance attribute (a
    # wrapper someone installed, the protocol's cached ``send``) goes back,
    # and a method that came from the class is un-shadowed.  Pinning the
    # bound method on its own instance instead would make a reference cycle.
    saved = [(obj, attr, vars(obj).get(attr)) for obj, attr, _stub in stubs]
    for obj, attr, stub in stubs:
        setattr(obj, attr, stub)
    try:
        yield
    finally:
        for obj, attr, value in saved:
            if value is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, value)


class EngineContext:
    """Everything one simulation run shares across engines.

    Owns the pieces every engine needs -- the system, the workload, stream
    opening/compilation, first-touch preparation, DRAM-cache pre-warm, the
    two exact phase loops and result assembly -- so concrete engines contain
    only their scheduling strategy.

    The class also owns the set-up memo, one per process: the compiled
    traces of the most recent keyed workload (:meth:`compile_streams`) and
    the most recent prewarm fill (:meth:`prewarm_dram_caches`).  Each slot
    holds one ``(key, value)`` entry, is reused only when the key is equal,
    and drops its entry before the next one is built, so a figure that runs
    one workload on several machines sets it up once.
    """

    # Each slot changes by one assignment of a whole ``(key, value)`` tuple,
    # so a run on another thread sees an old entry or a new one, never a
    # key paired with another key's value; a race costs at most a second
    # compile.
    #: ``((workload trace key, layout, thread count), traces)``.
    _trace_memo: Optional[Tuple[Hashable, Dict[int, CompiledTrace]]] = None
    #: ``((fill ranges, DRAM-cache geometry), detached filled cache)``.
    _fill_memo: Optional[Tuple[Hashable, DRAMCache]] = None

    def __init__(
        self,
        system: "NumaSystem",
        workload,
        *,
        sample_plan: Optional["SamplingPlan"] = None,
    ) -> None:
        self.system = system
        self.workload = workload
        #: Plan for sampling engines; ``None`` lets the engine derive one
        #: from the measured-region length (:meth:`SamplingPlan.for_region`).
        self.sample_plan = sample_plan

    # ------------------------------------------------------------------
    # Stream setup
    # ------------------------------------------------------------------

    def open_streams(self) -> Dict[int, Iterator[MemoryAccess]]:
        """Create one access iterator per active core."""
        num_threads = min(self.workload.num_threads, self.system.num_cores)
        return {
            thread_id: iter(self.workload.stream(thread_id))
            for thread_id in range(num_threads)
        }

    def compile_streams(self) -> Dict[int, CompiledTrace]:
        """Materialise one compiled trace per active core.

        A workload with a ``trace_key()``
        (:meth:`~repro.workloads.synthetic.SyntheticWorkload.trace_key`)
        reuses the traces of the last compile when that key, the system's
        address layout and the thread count are all equal.  Engines only
        read traces, so one set serves every run.  Any other workload (a
        trace directory, a scenario, a third-party object) compiles afresh.
        """
        num_threads = min(self.workload.num_threads, self.system.num_cores)
        layout = self.system.layout
        trace_key = getattr(self.workload, "trace_key", None)
        key = None if trace_key is None else (trace_key(), layout, num_threads)
        if key is not None:
            memo = EngineContext._trace_memo
            if memo is not None and memo[0] == key:
                return dict(memo[1])
            EngineContext._trace_memo = None  # dropped before the next is built
        traces = {
            thread_id: compile_trace(self.workload, thread_id, layout=layout)
            for thread_id in range(num_threads)
        }
        if key is not None:
            EngineContext._trace_memo = (key, dict(traces))
        return traces

    @staticmethod
    def clear_memo() -> None:
        """Drop the set-up memo: the next run compiles and fills afresh."""
        EngineContext._trace_memo = None
        EngineContext._fill_memo = None

    # ------------------------------------------------------------------
    # Warm-up helpers
    # ------------------------------------------------------------------

    def prepare_first_touch(self) -> None:
        """Model the first-touch policies' page placement.

        * **FT1**: the pages touched by the (single-threaded) initialisation
          phase are all homed at socket 0 before the parallel region starts
          (this is why the paper found FT1 to perform poorly).
        * **FT2 / first_touch**: placement reflects steady state -- the
          measured window starts long after the data set was allocated, so
          private pages are homed at their owning thread's socket and shared
          pages are spread (pseudo-uniformly, by page number) across the
          sockets.  Pages not described by the workload's
          :meth:`memory_regions` hint still follow plain dynamic first touch.

        The interleave policy ignores both hints.
        """
        policy_name = self.system.config.allocation_policy
        pin = getattr(self.system.policy, "pin_page", None)
        if pin is None:
            return

        if policy_name == "ft1":
            pages = getattr(self.workload, "serial_init_pages", None)
            if pages is None:
                return
            for page in pages():
                pin(page, 0)
            return

        if policy_name in ("ft2", "first_touch"):
            regions = getattr(self.workload, "memory_regions", None)
            if regions is None:
                return
            layout = self.system.layout
            config = self.system.config
            num_sockets = config.num_sockets
            for region in regions():
                first_page = layout.page_of(region["base"])
                num_pages = max(1, region["size"] // layout.page_size)
                owner_thread = region.get("owner_thread")
                if owner_thread is not None:
                    core = owner_thread % config.total_cores
                    home = config.socket_of_core(core)
                    for page in range(first_page, first_page + num_pages):
                        pin(page, home)
                else:
                    for page in range(first_page, first_page + num_pages):
                        pin(page, page % num_sockets)

    def prewarm_dram_caches(self) -> int:
        """Functionally pre-load the DRAM caches with the workload's shared data.

        The paper warms its DRAM caches with 100 million accesses before
        measuring; replaying that many accesses is not affordable here, so
        the equivalent steady-state content is installed directly.  Every
        socket's DRAM cache receives the same clean fill: the shared regions
        one after another (cold first, then warm, then hot), each cut to its
        first ``num_sets`` blocks.  The cap applies per region, not per
        cache, so the regions together may insert more blocks than the cache
        has sets (facesim at scale 1024 inserts 23,040 blocks into a
        16,384-set cache); the hotter regions, filled last, then win the
        direct-mapped conflicts.

        The fill is computed once per (fill ranges, cache geometry): a
        detached template cache receives it from empty through
        :meth:`DRAMCache.bulk_insert_clean`, and every empty socket cache
        adopts a copy (:meth:`DRAMCache.share_fill`).  The template is kept
        in the set-up memo, so the next machine with the same fill and
        geometry only copies it.  A cache that already holds data gets a
        ``bulk_insert_clean`` fill of its own.

        For directory designs that track DRAM-cache residency (full-dir and
        c3d-full-dir) every filled block -- displaced or not -- is
        registered in its home slice as Shared by every socket with a DRAM
        cache, so the directory stays a superset of reality
        (:meth:`GlobalDirectory.add_shared_entries`: one int per new
        entry).  Each registered page is pinned to the home it was
        registered at: :meth:`prepare_first_touch` places only a region's
        whole pages, and a first touch that moved a region's partial last
        page would leave its copies listed in the wrong slice.  With the
        broadcast filter on, every
        page of the filled blocks is classified shared: a socket other than
        a page's first toucher may already hold its blocks, so no write to
        it may skip the broadcast.

        Returns the number of block insertions each DRAM cache received
        (the sum of the capped region lengths, displaced blocks included),
        or 0 when there was nothing to fill.
        """
        system = self.system
        regions_fn = getattr(self.workload, "memory_regions", None)
        sockets = [sock for sock in system.sockets if sock.dram_cache is not None]
        if not system.protocol.uses_dram_cache or regions_fn is None or not sockets:
            return 0
        layout = system.layout
        # Least important first so the hottest regions win conflicts.
        order = {"cold": 0, "warm": 1, "hot": 2}
        shared_regions = sorted(
            (r for r in regions_fn() if r.get("owner_thread") is None),
            key=lambda r: order.get(r["kind"], 0),
        )
        num_sets = sockets[0].dram_cache.num_sets
        fill = []
        for region in shared_regions:
            base_block = layout.block_of(region["base"])
            num_blocks = max(1, region["size"] // layout.block_size)
            fill.append(range(base_block, base_block + min(num_blocks, num_sets)))

        for sock in sockets:
            cache = sock.dram_cache
            if cache.is_empty():
                cache.share_fill(self._fill_template(fill, cache))
                continue
            for blocks in fill:
                cache.bulk_insert_clean(blocks)

        if system.protocol.tracks_dram_cache_in_directory:
            # Registered a page at a time (a page has a single home).
            directories = system.directories
            home_of_block = system.mapper.home_of_block
            pin = getattr(system.policy, "pin_page", None)
            sharers = [sock.socket_id for sock in sockets]
            per_page = layout.blocks_per_page()
            for blocks in fill:
                start = blocks.start
                while start < blocks.stop:
                    stop = min(blocks.stop, (start // per_page + 1) * per_page)
                    home = home_of_block(start)
                    if pin is not None:
                        pin(start // per_page, home)
                    directories[home].add_shared_entries(range(start, stop), sharers)
                    start = stop

        classifier = system.page_classifier
        if classifier is not None:
            page_of_block = layout.page_of_block
            for blocks in fill:
                classifier.page_table.mark_shared(
                    range(page_of_block(blocks.start), page_of_block(blocks.stop - 1) + 1)
                )
        return sum(len(blocks) for blocks in fill)

    @staticmethod
    def _fill_template(fill, cache: DRAMCache) -> DRAMCache:
        """A detached cache of ``cache``'s geometry that received ``fill``
        from empty, built once per (fill, geometry) and kept in the memo."""
        key = (tuple(fill), cache._geometry())
        memo = EngineContext._fill_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        EngineContext._fill_memo = None  # dropped before the next is built
        template = DRAMCache(
            cache.size_bytes,
            block_size=cache.block_size,
            name="prewarm template",
            predictor_entries=cache.predictor_entries,
            region_size=cache.region_size,
        )
        for blocks in fill:
            template.bulk_insert_clean(blocks)
        EngineContext._fill_memo = (key, template)
        return template

    # ------------------------------------------------------------------
    # Measurement-blackout helpers (re-exported for engines)
    # ------------------------------------------------------------------

    def scratch_stats(self):
        """Blackout context: statistics land on a throw-away object."""
        return scratch_stats(self.system)

    def functional_timing(self):
        """Stub context: interconnect/memory timing models return zero."""
        return functional_timing(self.system)

    # ------------------------------------------------------------------
    # Phase accounting
    # ------------------------------------------------------------------

    def empty_result(self) -> SimulationResult:
        """The result of a run whose workload produced no streams."""
        return SimulationResult(self.system.stats, 0.0, 0, 0)

    def core_times(self, core_ids) -> Dict[int, float]:
        """Snapshot of each core's local clock (phase-boundary accounting)."""
        cores = self.system.cores
        return {core_id: cores[core_id].time for core_id in core_ids}

    def finalize(
        self, core_ids, warmup_offsets: Dict[int, float], executed: int
    ) -> SimulationResult:
        """Assemble the :class:`SimulationResult` of an exact measured phase."""
        system = self.system
        stats = system.stats
        for core_id in core_ids:
            stats.core_finish_ns[core_id] = (
                system.cores[core_id].time - warmup_offsets[core_id]
            )
        return SimulationResult(
            stats=stats,
            total_time_ns=stats.total_time_ns(),
            inter_socket_bytes=system.inter_socket_bytes(),
            accesses_executed=executed,
        )

    # ------------------------------------------------------------------
    # Exact phase loops (shared by the exact engines and sampled windows)
    # ------------------------------------------------------------------

    def run_phase_object(
        self,
        streams: Dict[int, Iterator[MemoryAccess]],
        limit_per_core: Optional[int],
    ) -> int:
        """Advance every stream until exhaustion or ``limit_per_core`` accesses."""
        system = self.system
        classifier = system.page_classifier
        mapper = system.mapper
        config = system.config

        heap = [(system.cores[core_id].time, core_id) for core_id in streams]
        heapq.heapify(heap)
        counts = {core_id: 0 for core_id in streams}
        executed = 0

        while heap:
            _time, core_id = heapq.heappop(heap)
            if limit_per_core is not None and counts[core_id] >= limit_per_core:
                continue
            try:
                access = next(streams[core_id])
            except StopIteration:
                continue

            core = system.cores[core_id]
            socket_id = config.socket_of_core(core_id)
            # NUMA placement (first touch) and page classification are driven
            # by the raw access stream, before the caches see the access.
            mapper.touch(access.addr, socket_id)
            if classifier is not None:
                classifier.record_access(core.thread_id, access.addr)

            core.execute(access)
            counts[core_id] += 1
            executed += 1
            if limit_per_core is None or counts[core_id] < limit_per_core:
                heapq.heappush(heap, (core.time, core_id))
        return executed

    def run_phase_compiled(
        self,
        traces: Dict[int, CompiledTrace],
        cursors: Dict[int, int],
        limit_per_core: Optional[int],
    ) -> int:
        """Advance every compiled trace until exhaustion or ``limit_per_core``.

        Executes the same access interleaving as :meth:`run_phase_object`
        (smallest ``(core time, core id)`` first) with the per-access Python
        overhead stripped out: no generator resumption, no ``MemoryAccess``
        allocation, no address arithmetic (block/page are precomputed), a
        single ``heappushpop`` per access instead of a push/pop pair.
        """
        system = self.system
        classifier = system.page_classifier
        record_access = classifier.record_access if classifier is not None else None
        mapper = system.mapper
        home_of_page = mapper.policy.home_of_page
        touched_pages = mapper._touched_pages
        config = system.config
        cores = system.cores

        # Per-core state tuples indexed by core id:
        # (blocks, pages, addrs, writes, gaps, execute_fast, socket_id, thread_id)
        states = {}
        ends = {}
        for core_id, trace in traces.items():
            start = cursors[core_id]
            end = trace.length if limit_per_core is None else min(
                trace.length, start + limit_per_core
            )
            ends[core_id] = end
            if start >= end:
                continue
            core = cores[core_id]
            states[core_id] = (
                trace.blocks,
                trace.pages,
                trace.addrs,
                trace.writes,
                trace.gaps,
                core.execute_fast,
                config.socket_of_core(core_id),
                core.thread_id,
            )
        if not states:
            return 0

        executed = 0
        heap = [(cores[cid].time, cid) for cid in states]
        heapq.heapify(heap)
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop

        current = heappop(heap)
        while True:
            cid = current[1]
            # This loop executes once per simulated access.
            blocks, pages, addrs, writes, gaps, execute_fast, socket_id, thread_id = states[
                cid
            ]
            i = cursors[cid]
            page = pages[i]
            # Inlined AddressMapper.touch_page.  A page already touched is
            # already placed (its first touch passed a toucher socket), so
            # only a first touch asks the policy.
            if page not in touched_pages:
                touched_pages[page] = home_of_page(page, socket_id)
            if record_access is not None:
                record_access(thread_id, addrs[i])
            new_time = execute_fast(blocks[i], writes[i], gaps[i])
            i += 1
            cursors[cid] = i
            executed += 1
            if i < ends[cid]:
                current = heappushpop(heap, (new_time, cid))
            elif heap:
                current = heappop(heap)
            else:
                return executed


class ExecutionEngine(ABC):
    """Strategy interface: how to drive a system with a workload.

    Every engine is deterministic: identical inputs produce bit-identical
    statistics, which the results store and the golden tests rely on.  One
    capability flag tells the engines apart where it matters:

    ``supports_sampling``
        The engine consumes a :class:`~repro.stats.sampling.SamplingPlan`
        and reports :class:`~repro.stats.sampling.SampledSimulationStats`
        (per-metric confidence intervals) instead of bit-exact counters.
    """

    #: Registry name (``engine=`` string); unique per engine.
    name: str = "abstract"
    supports_sampling: bool = False

    @abstractmethod
    def run(
        self,
        context: EngineContext,
        *,
        max_accesses_per_core: Optional[int] = None,
        warmup_accesses_per_core: int = 0,
    ) -> SimulationResult:
        """Execute the workload on the context's system and return the result.

        ``warmup_accesses_per_core`` accesses per core execute first with
        full architectural effect but without counting toward the reported
        statistics or the measured execution time; ``max_accesses_per_core``
        bounds the measured region.  First-touch preparation and DRAM-cache
        pre-warm have already been applied by the caller.
        """

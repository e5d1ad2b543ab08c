"""Vectorized columnar execution engine (``engine=vector``).

The exact engines execute one access per Python iteration.  This engine
executes compiled traces in *batch windows*: for each core it classifies a
chunk of upcoming accesses with numpy column operations, proving which prefix
of them is **architecturally fast** -- L1 hits (reads and already-Modified
writes), store-buffer forwards, page-classifier no-ops -- and then *defers*
that prefix's bookkeeping.  Only the first non-fast access of each core (an
L1 miss, a store needing coherence permission, a first-touch page, a
store-buffer stall) drops into the per-access protocol path, via the very
same ``Core.execute_fast`` the ``compiled`` engine uses.

Bit identity with ``compiled``/``object`` (asserted by
``tests/engines/test_differential.py`` and the equivalence matrix) follows
from two invariants:

* **Classification is conservative and exact.**  An access is classified
  fast only when its entire observable effect is the shared counters, its
  own L1 recency/dirty bits, its store-buffer state, and a constant-``L``
  latency-accumulator fold -- all computed from the same state the scalar
  path would see.  Anything uncertain (and every classified-slow access)
  runs through ``execute_fast`` unchanged.
* **Deferred effects are applied in observation order.**  The only fast-path
  state another core can *read* is the dirty bit of its own L1 line (a store
  hit needs a Modified line, whose LLC line is already Modified and dirty),
  so dirty bits are applied eagerly when an access is consumed; everything
  else (counters, clocks, recency, store-buffer contents, latency folds) is
  flushed before the owning core -- or, for the shared latency accumulators,
  before *any* core -- next executes a slow access.  Float accumulation
  order is preserved exactly: deferred fast accesses fold the constant L1
  latency in their true global order relative to every slow access's
  variable latency (``LatencyAccumulator.add_constant``), and per-core
  clocks advance through the same left-to-right float chain as the scalar
  loop (``np.cumsum`` folds identically).

Cross-core interleaving uses the same ``(core time, core id)`` merge order as
the scalar engines: each core's next *slow* access is an event in a heap, and
when one pops, every other core's deferred prefix is consumed up to that
point first.  A slow access can change what is fast for other cores (peer
invalidation, LLC back-invalidation, directory downgrade), so each L1 keeps a
change log (``SetAssociativeCache._changes``) and every affected core is
re-classified before execution continues.

When a workload is miss-dominated there is nothing to batch (see
docs/performance.md): whenever a ``bail_after``-access probe window comes
back miss-heavy (fast fraction below ``bail_fast_frac``), the phase runs an
exponentially growing *scalar burst* -- the next ``burst_accesses`` accesses
in exact global merge order on the per-access path -- before re-probing, so
cold-start miss storms and genuinely unbatchable traces both converge to the
scalar loop's speed while staying bit-identical.  Configurations
outside the classifier's proven envelope (custom allocation policies or page
classifiers, zero L1 latency) skip the batch path entirely.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Set

import numpy as np

from ..caches.sram_cache import DIRTY, MODIFIED, SetAssociativeCache
from ..core.page_classifier import PrivateSharedClassifier
from ..cpu.store_buffer import StoreBuffer
from ..memory.allocation import FirstTouchPolicy, InterleavePolicy
from ..memory.page_table import PageClassification, PageTable
from .base import EngineContext, ExecutionEngine, SimulationResult

__all__ = ["VectorEngine"]

_PAGE_SHARED = PageClassification.SHARED
_EMPTY_F = np.empty(0, dtype=np.float64)


def _vectorizable(system, core_ids) -> bool:
    """True when the batch classifier's assumptions hold for this run.

    The classifier replicates the inlined fast paths of
    :meth:`Core.execute_fast` exactly; any substituted component (an L1
    that is not a ``SetAssociativeCache``, a subclassed store buffer or page
    classifier, an exotic allocation policy) voids that proof, so the engine
    falls back to the scalar loop.
    """
    policy = system.mapper.policy
    if type(policy) not in (InterleavePolicy, FirstTouchPolicy):
        return False
    sockets = system.sockets
    latency = sockets[0].l1_latency_ns
    if latency <= 0:
        # The store-buffer occupancy model needs completion > issue time.
        return False
    for sock in sockets:
        if sock.l1_latency_ns != latency:
            return False
    classifier = system.page_classifier
    if classifier is not None:
        if type(classifier) is not PrivateSharedClassifier:
            return False
        if classifier.track_migrations:
            return False
        if type(classifier.page_table) is not PageTable:
            return False
        if classifier.layout != system.layout:
            return False
    cores = system.cores
    for core_id in core_ids:
        core = cores[core_id]
        if type(core.store_buffer) is not StoreBuffer:
            return False
        if not isinstance(core.l1, SetAssociativeCache):
            return False
    return True


class _CoreState:
    """Per-core batching state: trace columns, chunk masks, derived prefix."""

    __slots__ = (
        # identity / fast-path handles
        "core_id", "core", "execute_fast", "socket_id", "thread_id",
        "l1", "l1_sets", "l1_nsets", "sb", "cycle_ns",
        # trace columns (Python lists for the scalar path, numpy for batches)
        "blocks_l", "pages_l", "addrs_l", "writes_l", "gaps_l",
        "nb", "npg", "nw", "ng",
        "end",
        # chunk-static classification (valid from c0 for cn accesses)
        "c0", "cn", "blk_ch", "wr_ch",
        "gap_ns", "inc2", "pok", "res", "mod", "binv", "bmap",
        "lastw", "log_pos", "page_true",
        # derived prefix (origin d0 within the chunk, kd fast entries)
        "d0", "kd", "pts", "cw", "cf", "fwd_d",
        "wrel", "wcomp", "wblocks", "wi",
        "j", "aj", "win",
        # scheduling
        "gen", "kind", "done",
    )


class VectorEngine(ExecutionEngine):
    """Batched execution of compiled traces, bit-identical to ``compiled``."""

    name = "vector"
    supports_trace_compile = True

    #: Accesses classified per batch window.  Tests shrink this to force
    #: prefixes that cross chunk boundaries at adversarial run lengths.
    chunk_size = 16384
    #: Size of the first chunk built per core (and of the chunks rebuilt
    #: after a scalar burst): residency probes on a cold or shifting working
    #: set go stale quickly, so the first classification pass is kept cheap.
    #: Later chunks are full ``chunk_size``.
    chunk_initial = 1024
    #: Initial derive lookahead: each re-derive classifies only this many
    #: upcoming accesses and the window doubles up to ``chunk_size`` every
    #: time it is exhausted fast (so hit-dominated stretches amortize one
    #: classification over the whole chunk).  A slow access resets the
    #: window.  Derive cost is dominated by fixed numpy-call overhead below
    #: a few hundred entries, so the base window is a few hundred, not a
    #: few dozen.
    derive_window = 512
    #: Fast-fraction probe: every ``bail_after`` executed accesses, if the
    #: fraction classified slow exceeded ``1 - bail_fast_frac``, run a
    #: scalar burst (see :meth:`_VectorPhase._scalar_burst`) before
    #: re-entering batch mode.  The threshold is strict because the
    #: economics are lopsided: a slow event costs ~50-100x a scalar access
    #: (re-derive + sweep), so batch mode only wins when hit runs are long
    #: (hundreds of accesses); at even a few percent misses the scalar path
    #: is faster.
    bail_after = 256
    bail_fast_frac = 0.97
    #: Scalar bursts run in segments of ``burst_accesses``; after each
    #: segment the L1 miss fraction over that segment decides whether the
    #: workload is still miss-dominated (keep going, up to ``burst_cap``
    #: per burst) or warm enough to re-enter batch mode.
    burst_accesses = 8192
    burst_cap = 262144

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
            self._run_phase(context, traces, cursors, warmup_accesses_per_core)
            context.system.reset_measurement()
        warmup_offsets = context.core_times(traces)
        executed = self._run_phase(context, traces, cursors, max_accesses_per_core)
        return context.finalize(traces, warmup_offsets, executed)

    def _run_phase(self, context, traces, cursors, limit_per_core) -> int:
        if not _vectorizable(context.system, traces.keys()):
            return context.run_phase_compiled(traces, cursors, limit_per_core)
        return _VectorPhase(self, context, traces, cursors, limit_per_core).run()


class _VectorPhase:
    """One warmup or measured phase driven in batch windows."""

    def __init__(self, engine, context, traces, cursors, limit):
        self.engine = engine
        self.context = context
        self.traces = traces
        self.cursors = cursors
        self.limit = limit
        system = context.system
        self.system = system
        classifier = system.page_classifier
        self.classifier = classifier
        self.record_access = classifier.record_access if classifier is not None else None
        self.pt_lookup = (
            classifier.page_table.lookup if classifier is not None else None
        )
        mapper = system.mapper
        self.home_of_page = mapper.policy.home_of_page
        self.touched_pages = mapper._touched_pages
        self.L = system.sockets[0].l1_latency_ns
        layout = system.layout
        self.page_ratio = (
            layout.page_size // layout.block_size
            if layout.page_size % layout.block_size == 0
            else 0
        )
        self.chunk = max(1, int(engine.chunk_size))
        self.heap: List = []
        self.live: List[_CoreState] = []
        self.by_id: Dict[int, _CoreState] = {}
        self.executed = 0
        self.pending_r = 0
        self.pending_w = 0
        # Fast-fraction probe window and the scalar-burst length it controls.
        self.win_base = max(1, min(int(engine.derive_window), self.chunk))
        self.win_exec = 0
        self.win_slow = 0

        config = system.config
        cores = system.cores
        for core_id, trace in traces.items():
            start = cursors[core_id]
            end = trace.length if limit is None else min(trace.length, start + limit)
            if start >= end:
                continue
            core = cores[core_id]
            cols = trace.columns()
            st = _CoreState()
            st.core_id = core_id
            st.core = core
            st.execute_fast = core.execute_fast
            st.socket_id = config.socket_of_core(core_id)
            st.thread_id = core.thread_id
            st.l1 = core.l1
            st.l1_sets = core.l1._sets
            st.l1_nsets = core.l1.num_sets
            st.sb = core.store_buffer
            st.cycle_ns = core.cycle_ns
            st.blocks_l = trace.blocks
            st.pages_l = trace.pages
            st.addrs_l = trace.addrs
            st.writes_l = trace.writes
            st.gaps_l = trace.gaps
            st.nb = cols["blocks"]
            st.npg = cols["pages"]
            st.nw = cols["writes"]
            st.ng = cols["gaps"]
            st.end = end
            st.gen = 0
            st.done = False
            st.win = self.win_base
            st.page_true: Set[int] = set()
            core.l1._track_changes = True
            core.l1._changes.clear()
            st.log_pos = 0
            self.live.append(st)
            self.by_id[core_id] = st

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> int:
        try:
            heap = self.heap
            engine = self.engine
            size = engine.chunk_initial
            for st in self.live:
                self._build_chunk(st, self.cursors[st.core_id], size)
                self._derive(st)
                self._push_event(st)
            heappop = heapq.heappop
            chunk = self.chunk
            slow_limit = 1.0 - engine.bail_fast_frac
            while heap:
                t_slow, cid, gen = heappop(heap)
                st = self.by_id[cid]
                if gen != st.gen or st.done:
                    continue
                if st.kind == "slow":
                    self._window_sweep(t_slow, cid)
                    self._consume_range(st, st.kd)
                    self._flush(st)
                    self._flush_global_latency()
                    self._run_slow(st)
                    self.executed += 1
                    self.win_exec += 1
                    self.win_slow += 1
                    # Track the observed miss spacing: clustered misses get
                    # short (cheap) rederives, sparse misses long lookahead.
                    w = st.kd << 1
                    if w < 64:
                        w = 64
                    st.win = w if w < chunk else chunk
                    # Advance before the probe: a scalar burst re-derives
                    # every cursor from the flushed state, which must already
                    # reflect the slow access just executed.
                    self._advance(st)
                    if self.win_exec >= engine.bail_after:
                        if self.win_slow > slow_limit * self.win_exec:
                            self._scalar_burst()
                            continue
                        self.win_exec = 0
                        self.win_slow = 0
                    self._push_event(st)
                    self._revalidate(cid)
                else:  # boundary: lookahead exhausted, no access executes here
                    self._consume_range(st, st.kd)
                    self._flush(st)
                    w = st.win << 2
                    st.win = w if w < chunk else chunk
                    self._advance(st)
                    self._push_event(st)
            # Every remaining core's trace tail is fast: consume it all.
            for st in self.live:
                if st.done:
                    continue
                self._consume_range(st, st.kd)
                self._flush(st)
            self._flush_global_latency()
            return self.executed
        finally:
            for st in self.live:
                st.l1._track_changes = False
                st.l1._changes.clear()

    def _push_event(self, st) -> None:
        st.gen += 1
        if not st.done and st.kind != "end":
            heapq.heappush(self.heap, (st.pts[st.kd], st.core_id, st.gen))

    def _window_sweep(self, t_slow: float, slow_cid: int) -> None:
        """Consume every other core's entries due before ``(t_slow, slow_cid)``."""
        for o in self.live:
            if o.done or o.core_id == slow_cid:
                continue
            j = o.j
            if j >= o.kd:
                continue
            pts = o.pts
            head = pts[j]
            ocid = o.core_id
            if head > t_slow or (head == t_slow and ocid > slow_cid):
                continue
            if ocid < slow_cid:
                cut = bisect_right(pts, t_slow, j, o.kd)
            else:
                cut = bisect_left(pts, t_slow, j, o.kd)
            self._consume_range(o, cut)

    def _revalidate(self, slow_cid: int) -> None:
        """Re-classify any core whose L1 the slow access just mutated."""
        for o in self.live:
            if o.done or o.core_id == slow_cid:
                continue
            if len(o.l1._changes) != o.log_pos:
                self._flush(o)
                self._advance(o)
                self._push_event(o)

    def _scalar_burst(self) -> None:
        """Execute a stretch of accesses on the per-access path.

        Runs the same global ``(core time, core id)`` merge as
        ``run_phase_compiled`` but stops on a *global* access count, which
        preserves the exact execution-order prefix -- a per-core limit would
        let leading cores run past lagging ones and diverge.  The burst is
        segmented: after every ``burst_accesses`` accesses the L1 miss
        fraction over that segment (``stats.l1_misses``) decides whether the
        workload is still miss-dominated (keep bursting, up to
        ``burst_cap``) or warm enough to re-enter batch mode.  All deferred
        state is flushed first; afterwards every chunk is rebuilt (the
        scalar stretch invalidated the residency probes wholesale).
        """
        for o in self.live:
            if not o.done:
                self._flush(o)
        self._flush_global_latency()
        engine = self.engine
        cursors = self.cursors
        by_id = self.by_id
        touched_pages = self.touched_pages
        home_of_page = self.home_of_page
        record_access = self.record_access
        entries = [
            (o.core.time, o.core_id) for o in self.live if cursors[o.core_id] < o.end
        ]
        heapq.heapify(entries)
        heapreplace = heapq.heapreplace
        heappop = heapq.heappop
        stats = self.system.stats
        seg = max(1, int(engine.burst_accesses))
        cap = max(seg, int(engine.burst_cap))
        miss_limit = 1.0 - engine.bail_fast_frac
        total = 0
        while entries and total < cap:
            misses0 = stats.l1_misses
            remaining = seg
            while entries and remaining:
                cid = entries[0][1]
                st = by_id[cid]
                i = cursors[cid]
                page = st.pages_l[i]
                home = home_of_page(page, st.socket_id)
                if page not in touched_pages:
                    touched_pages[page] = home
                if record_access is not None:
                    record_access(st.thread_id, st.addrs_l[i])
                new_time = st.execute_fast(st.blocks_l[i], st.writes_l[i], st.gaps_l[i])
                i += 1
                cursors[cid] = i
                remaining -= 1
                if i < st.end:
                    heapreplace(entries, (new_time, cid))
                else:
                    heappop(entries)
            ran = seg - remaining
            total += ran
            if stats.l1_misses - misses0 <= miss_limit * ran:
                break
        self.executed += total
        # Re-enter batch mode: rebuild every chunk from the new cursors.
        self.heap.clear()
        size = engine.chunk_initial
        for o in self.live:
            if o.done:
                continue
            if cursors[o.core_id] >= o.end:
                o.done = True
                o.kind = "end"
                o.l1._changes.clear()
                o.log_pos = 0
                continue
            o.win = self.win_base
            self._build_chunk(o, cursors[o.core_id], size)
            self._derive(o)
            self._push_event(o)
        self.win_exec = 0
        self.win_slow = 0

    # ------------------------------------------------------------------
    # Per-access slow path (identical to run_phase_compiled's run_one)
    # ------------------------------------------------------------------

    def _run_slow(self, st) -> None:
        i = self.cursors[st.core_id]
        page = st.pages_l[i]
        home = self.home_of_page(page, st.socket_id)
        if page not in self.touched_pages:
            self.touched_pages[page] = home
        if self.record_access is not None:
            self.record_access(st.thread_id, st.addrs_l[i])
        st.execute_fast(st.blocks_l[i], st.writes_l[i], st.gaps_l[i])
        self.cursors[st.core_id] = i + 1

    def _advance(self, st) -> None:
        cursor = self.cursors[st.core_id]
        if cursor >= st.end:
            st.done = True
            st.kind = "end"
            return
        if cursor - st.c0 >= st.cn:
            self._build_chunk(st, cursor)
        else:
            st.d0 = cursor - st.c0
        self._derive(st)

    # ------------------------------------------------------------------
    # Deferred-effect application
    # ------------------------------------------------------------------

    def _flush_global_latency(self) -> None:
        stats = self.system.stats
        if self.pending_r:
            stats.read_latency.add_constant(self.L, self.pending_r)
            self.pending_r = 0
        if self.pending_w:
            stats.write_latency.add_constant(self.L, self.pending_w)
            self.pending_w = 0

    def _consume_range(self, st, cut: int) -> None:
        """Mark entries ``[j, cut)`` of the derived prefix as executed.

        Applies the only cross-core-visible effect (L1 dirty bits) eagerly;
        everything else waits for :meth:`_flush`.
        """
        j = st.j
        if cut <= j:
            return
        cw = st.cw
        w = int(cw[cut] - cw[j]) if cw is not None else 0
        self.pending_w += w
        self.pending_r += (cut - j) - w
        wrel = st.wrel
        wi = st.wi
        if wi < len(wrel) and wrel[wi] < cut:
            sets_ = st.l1_sets
            nsets = st.l1_nsets
            wblocks = st.wblocks
            while wi < len(wrel) and wrel[wi] < cut:
                block = wblocks[wi]
                sets_[block % nsets][block] |= DIRTY
                wi += 1
            st.wi = wi
        st.j = cut
        self.executed += cut - j
        self.win_exec += cut - j

    def _flush(self, st) -> None:
        """Apply all deferred effects of consumed entries ``[aj, j)``."""
        j = st.j
        aj = st.aj
        if j > aj:
            d0 = st.d0
            lo = d0 + aj
            hi = d0 + j
            m = j - aj
            t = st.pts[j]
            core = st.core
            # Exact cast: the heap keys and sb comparisons tolerate the
            # numpy scalar, but core.time flows into JSON-serialised stats.
            core.time = float(t)
            cw = st.cw
            w = int(cw[j] - cw[aj]) if cw is not None else 0
            r = m - w
            cf = st.cf
            f = int(cf[j] - cf[aj]) if cf is not None else 0
            stats = self.system.stats
            stats.instructions += m
            stats.reads += r
            stats.writes += w
            stats.l1_hits += m - f
            if f:
                stats.store_forward_hits += f
            if self.classifier is not None:
                self.classifier.stats.accesses += m

            # Store buffer: rebuild the deque as the scalar path would have
            # left it (entries retired by ``t`` may linger in the scalar
            # deque until a later purge, but an entry with completion <= now
            # can never forward or stall again, so dropping it early is
            # unobservable).
            sb = st.sb
            a_i = bisect_left(st.wrel, aj)
            b_i = bisect_left(st.wrel, j)
            entries = sb._entries
            if b_i > a_i or entries:
                merged = [e for e in entries if e[0] > t]
                wcomp = st.wcomp
                wblocks = st.wblocks
                for idx in range(a_i, b_i):
                    completion = wcomp[idx]
                    if completion > t:
                        merged.append((completion, wblocks[idx]))
                entries.clear()
                entries.extend(merged)

            # L1 recency: replay only the *last* touch of each block, in
            # window order -- the same final LRU order as per-access touches.
            blocks_seg = st.blk_ch[lo:hi]
            if f:
                blocks_seg = blocks_seg[~st.fwd_d[aj:j]]
            ns = blocks_seg.size
            if ns == 1:
                st.l1.bulk_touch((int(blocks_seg[0]),))
            elif ns:
                rev = blocks_seg[::-1]
                _, first_idx = np.unique(rev, return_index=True)
                st.l1.bulk_touch(rev[np.sort(first_idx)][::-1].tolist())

            st.aj = j
        self.cursors[st.core_id] = st.c0 + st.d0 + st.j

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def _page_fast(self, page: int, thread_id: int) -> bool:
        """True when an access to ``page`` has no placement/classifier effect.

        Requires the page already touched (so the inlined first-touch update
        is a no-op and ``home_of_page`` is pure) and, when a classifier is
        active, an existing entry that is SHARED or owned by this thread (the
        two no-op arms of ``PageTable.touch``).  All three conditions are
        monotone-stable once true.
        """
        if page not in self.touched_pages:
            return False
        lookup = self.pt_lookup
        if lookup is None:
            return True
        entry = lookup(page)
        if entry is None:
            return False
        return entry.classification is _PAGE_SHARED or entry.owner_thread == thread_id

    def _build_chunk(self, st, start: int, size: Optional[int] = None) -> None:
        """Classify the chunk-static masks for accesses ``[start, start+cn)``.

        ``size`` caps the chunk below ``chunk_size`` (first build per core
        and post-burst rebuilds, where the probes are likely to go stale).
        """
        st.c0 = start
        st.d0 = 0
        limit = self.chunk if size is None else max(1, min(int(size), self.chunk))
        cn = min(st.end - start, limit)
        st.cn = cn
        sl = slice(start, start + cn)
        blk = st.nb[sl]
        st.blk_ch = blk
        wr = st.nw[sl]
        st.wr_ch = wr
        st.gap_ns = st.ng[sl] * st.cycle_ns
        st.inc2 = np.where(wr, st.cycle_ns, self.L)

        # Blocks: one stable argsort yields the sorted unique blocks, the
        # inverse mapping (same as ``np.unique(return_inverse=True)``) *and*
        # the last-prior-write index, so the chunk is sorted once, not three
        # times.
        order = np.argsort(blk, kind="stable")
        sorted_b = blk[order]
        seg_start = np.empty(cn, dtype=bool)
        seg_start[0] = True
        seg_start[1:] = sorted_b[1:] != sorted_b[:-1]
        segid = np.cumsum(seg_start) - 1
        ubk = sorted_b[seg_start]
        binv = np.empty(cn, dtype=np.int64)
        binv[order] = segid
        st.binv = binv
        resu = np.empty(ubk.size, dtype=bool)
        modu = np.empty(ubk.size, dtype=bool)
        bmap = {}
        sets_ = st.l1_sets
        nsets = st.l1_nsets
        for u, block in enumerate(ubk.tolist()):
            bmap[block] = u
            cache_set = sets_.get(block % nsets)
            line = cache_set.get(block) if cache_set is not None else None
            if line is None:
                resu[u] = False
                modu[u] = False
            else:
                resu[u] = True
                modu[u] = bool(line & MODIFIED)
        st.bmap = bmap
        st.res = resu[binv]
        st.mod = modu[binv]

        # Page classification: when pages are whole multiples of blocks the
        # page of every access follows from its (already deduplicated)
        # block, so only the handful of unique pages is probed and no second
        # full-chunk ``np.unique`` is needed.
        ratio = self.page_ratio
        if ratio:
            upg, pinv = np.unique(ubk // ratio, return_inverse=True)
        else:
            upg, pinv = np.unique(st.npg[sl], return_inverse=True)
        pvals = np.empty(upg.size, dtype=bool)
        page_true = st.page_true
        thread_id = st.thread_id
        for u, page in enumerate(upg.tolist()):
            if page in page_true:
                pvals[u] = True
            else:
                ok = self._page_fast(page, thread_id)
                pvals[u] = ok
                if ok:
                    page_true.add(page)
        st.pok = pvals[pinv][binv] if ratio else pvals[pinv]

        # Last prior write to the same block, per access: within each
        # equal-block segment a running max over (write position + 1, offset
        # per segment so the accumulate cannot leak across segments) yields
        # the latest prior write; -1 where none exists in the chunk.
        if wr.any():
            write_pos = np.where(wr[order], order, -1)
            enc = (write_pos + 1) + segid * (cn + 1)
            run = np.maximum.accumulate(enc)
            prior = np.empty(cn, dtype=np.int64)
            prior[0] = -1
            prior[1:] = run[:-1] - segid[1:] * (cn + 1) - 1
            prior[seg_start] = -1
            lastw = np.empty(cn, dtype=np.int64)
            lastw[order] = prior
            st.lastw = lastw
        else:
            st.lastw = np.full(cn, -1, dtype=np.int64)
        # The probes above reflect every logged change so far.
        st.l1._changes.clear()
        st.log_pos = 0

    def _patch(self, st) -> None:
        """Fold the L1 change log into the chunk-static residency masks."""
        changes = st.l1._changes
        if st.log_pos == len(changes):
            return
        delta = changes[st.log_pos:]
        if -1 in delta:  # wholesale clear: re-probe everything
            self._build_chunk(st, self.cursors[st.core_id])
            return
        sets_ = st.l1_sets
        nsets = st.l1_nsets
        bmap = st.bmap
        binv = st.binv
        for block in set(delta):
            u = bmap.get(block)
            if u is None:
                continue
            cache_set = sets_.get(block % nsets)
            line = cache_set.get(block) if cache_set is not None else None
            sel = binv == u
            if line is None:
                st.res[sel] = False
                st.mod[sel] = False
            else:
                st.res[sel] = True
                st.mod[sel] = bool(line & MODIFIED)
        changes.clear()
        st.log_pos = 0

    def _derive(self, st) -> None:
        """Compute the fast prefix from the core's current position.

        Times, store-buffer occupancy/forwarding and the combined fast mask
        depend on the core's clock and deque *now*; the residency/page masks
        are chunk-static (patched via the change log).
        """
        self._patch(st)
        d0 = st.d0
        # Adaptive lookahead: classify only ``st.win`` accesses (the window
        # doubles on exhaustion, resets on a slow access), so frequent misses
        # pay for short windows and long hit runs amortize whole chunks.
        n = st.cn - d0
        if n > st.win:
            n = st.win
        hi = d0 + n
        t0 = st.core.time
        L = self.L

        # Clock chain: T[i] is the core time before access d0+i, folded
        # left-to-right exactly as execute_fast folds it (gap advance, then
        # the access's own latency/cycle).
        inc = np.empty(2 * n + 1, dtype=np.float64)
        inc[0] = t0
        inc[1::2] = st.gap_ns[d0:hi]
        inc[2::2] = st.inc2[d0:hi]
        cs = np.cumsum(inc)
        tga = cs[1::2]  # time after the gap = when the access issues

        wr = st.wr_ch[d0:hi]
        res = st.res[d0:hi]

        # Store-buffer model over the window's writes: completions are a
        # running max of (issue + L) seeded with the live deque's tail
        # (deque completions are non-decreasing, so the tail is its max);
        # occupancy before push j counts unretired entries via searchsorted
        # on the merged non-decreasing completion sequence.
        sb = st.sb
        deque_entries = list(sb._entries)
        n0 = len(deque_entries)
        wrel_np = np.flatnonzero(wr)
        nw = wrel_np.size
        if n0:
            init_comps = np.fromiter(
                (e[0] for e in deque_entries), dtype=np.float64, count=n0
            )
            tail = init_comps[-1]
        else:
            init_comps = _EMPTY_F
            tail = -np.inf
        stall = None
        if nw:
            wtga = tga[wrel_np]
            seed = np.empty(nw + 1, dtype=np.float64)
            seed[0] = tail
            seed[1:] = wtga + L
            wc = np.maximum.accumulate(seed)[1:]
            if n0 + nw >= sb.capacity:
                # Occupancy can only reach capacity when the live deque plus
                # the window's stores could; otherwise no store can stall.
                all_comps = np.concatenate((init_comps, wc))
                retired = np.searchsorted(all_comps, wtga, side="right")
                occ = n0 + np.arange(nw) - retired
                if bool((occ >= sb.capacity).any()):
                    stall = np.zeros(n, dtype=bool)
                    stall[wrel_np] = occ >= sb.capacity

        # Store-to-load forwarding: a read forwards iff the last prior write
        # to its block is still unretired (the deque's completions are
        # non-decreasing, so if the last matching entry retired, every older
        # one did too).  The last prior write is either inside this window
        # (-> wc) or already in the live deque.
        reads = ~wr
        lastw = st.lastw[d0:hi]
        fwd_time = None
        if nw:
            in_window = lastw >= d0
            idxs = np.flatnonzero(in_window & reads)
            if idxs.size:
                ranks = np.searchsorted(wrel_np, lastw[idxs] - d0)
                fwd_time = np.full(n, -np.inf)
                fwd_time[idxs] = wc[ranks]
        else:
            in_window = None
        if n0:
            # Match reads whose last prior write predates the window against
            # the live deque (last entry per block wins): searchsorted over
            # the <= capacity deque blocks instead of a per-element scan.
            init_last: Dict[int, float] = {}
            for completion, block in deque_entries:
                init_last[block] = completion
            no_window_write = reads if in_window is None else ~in_window & reads
            outw = np.flatnonzero(no_window_write)
            if outw.size:
                nk = len(init_last)
                kb = np.fromiter(init_last.keys(), dtype=np.int64, count=nk)
                kv = np.fromiter(init_last.values(), dtype=np.float64, count=nk)
                order = np.argsort(kb)
                kb = kb[order]
                kv = kv[order]
                seg = st.blk_ch[d0:hi][outw]
                pos = np.searchsorted(kb, seg)
                pos[pos == nk] = 0
                hit = kb[pos] == seg
                if bool(hit.any()):
                    if fwd_time is None:
                        fwd_time = np.full(n, -np.inf)
                    fwd_time[outw[hit]] = kv[pos[hit]]
        fwd = None if fwd_time is None else reads & (fwd_time > tga)

        wr_fast = res & st.mod[d0:hi]
        if stall is not None:
            wr_fast &= ~stall
        rd_fast = res if fwd is None else fwd | res
        fast = st.pok[d0:hi] & np.where(wr, wr_fast, rd_fast)
        if bool(fast.all()):
            kd = n
        else:
            kd = int(np.argmin(fast))
        st.kd = kd
        st.pts = cs[0 : 2 * kd + 1 : 2]
        if nw:
            cw = np.empty(kd + 1, dtype=np.int64)
            cw[0] = 0
            np.cumsum(wr[:kd], out=cw[1:])
            st.cw = cw
        else:
            st.cw = None
        if fwd is None:
            st.cf = None
            st.fwd_d = None
        else:
            cf = np.empty(kd + 1, dtype=np.int64)
            cf[0] = 0
            np.cumsum(fwd[:kd], out=cf[1:])
            st.cf = cf
            st.fwd_d = fwd[:kd]
        if nw:
            kw = wrel_np[wrel_np < kd]
            st.wrel = kw.tolist()
            st.wcomp = wc[: kw.size].tolist()
            st.wblocks = st.blk_ch[d0 + kw].tolist()
        else:
            st.wrel = []
            st.wcomp = []
            st.wblocks = []
        st.wi = 0
        st.j = 0
        st.aj = 0
        if kd < n:
            st.kind = "slow"
        elif hi == st.cn and st.c0 + st.cn >= st.end:
            st.kind = "end"
        else:
            st.kind = "boundary"

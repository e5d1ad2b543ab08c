"""Simple timing core (Table II: 32-core, 1 IPC, 3 GHz, TSO, 32-entry store queue).

The paper's processor model is deliberately simple: one instruction per cycle
when not blocked on memory, loads block for the full memory latency, stores
retire into the store buffer and drain off the critical path.  Each
:class:`Core` owns its clock (``time``, in nanoseconds); the simulation driver
advances the core with the earliest clock so the cores' memory transactions
interleave in (approximate) global time order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..caches.sram_cache import DIRTY, MODIFIED
from ..stats.counters import SimulationStats
from .store_buffer import StoreBuffer

if TYPE_CHECKING:  # pragma: no cover
    from ..system.socket import Socket
    from ..workloads.trace import MemoryAccess

__all__ = ["Core"]


class Core:
    """One in-order, single-issue core."""

    def __init__(
        self,
        core_id: int,
        socket: "Socket",
        *,
        clock_ghz: float = 3.0,
        store_buffer_entries: int = 32,
        thread_id: Optional[int] = None,
    ) -> None:
        self.core_id = core_id
        self.socket = socket
        self.thread_id = thread_id if thread_id is not None else core_id
        self.cycle_ns = 1.0 / clock_ghz
        self.time = 0.0
        self.store_buffer = StoreBuffer(store_buffer_entries)
        #: Socket-local L1 index, fixed at construction (hot-loop fast path).
        self.local_index = socket.local_index_of(core_id)
        #: This core's L1, whose hit path :meth:`execute_fast` inlines.
        self.l1 = socket.l1s[self.local_index]

    # -- helpers --------------------------------------------------------------

    @property
    def stats(self) -> SimulationStats:
        return self.socket.stats

    def advance_instructions(self, count: int) -> None:
        """Model ``count`` non-memory instructions at 1 IPC."""
        if count > 0:
            self.time += count * self.cycle_ns

    # -- the per-access execution loop ------------------------------------------

    def execute(self, access: "MemoryAccess") -> float:
        """Execute one trace record; returns the core's new local time."""
        self.advance_instructions(access.gap)
        block = self.socket.layout.block_of(access.addr)
        self.stats.instructions += 1

        if access.is_write:
            self._execute_store(block)
        else:
            self._execute_load(block)
        return self.time

    def execute_fast(self, block: int, is_write: bool, gap: int) -> float:
        """Hot-loop variant of :meth:`execute` for compiled traces.

        Takes a precomputed block number, hoists the attribute and property
        lookups of the legacy path into locals and inlines the store
        buffer's ``forwards``/``push`` and the L1 hit path (the same LRU
        move-to-end as ``SetAssociativeCache.lookup``; a store hit sets the
        dirty bit in place).  The sequence of architectural and statistics
        updates is identical to ``execute``, which still calls the
        store-buffer methods (the engine equivalence tests compare the two),
        only the Python-level indirection differs.
        """
        time = self.time
        if gap > 0:
            time += gap * self.cycle_ns
        socket = self.socket
        stats = socket.stats
        stats.instructions += 1
        store_buffer = self.store_buffer
        entries = store_buffer._entries

        if is_write:
            stats.writes += 1
            while entries and entries[0][0] <= time:
                entries.popleft()
            # Inlined L1 lookup + store hit path.
            l1 = self.l1
            cache_set = l1._sets.get(block % l1.num_sets)
            line = cache_set.pop(block, None) if cache_set is not None else None
            if line is not None and line & MODIFIED:
                # Store hit: the LRU move and the dirty bit in one store.
                # The LLC line is Modified and dirty already (an invariant
                # NumaSystem.check_invariants checks), so it is not touched.
                cache_set[block] = line | DIRTY
                stats.l1_hits += 1
                latency = socket.l1_latency_ns
            else:
                if line is not None:
                    # A hit on a Shared line still lacks write permission.
                    cache_set[block] = line
                stats.l1_misses += 1
                latency, _source = socket.access_l1_missed(
                    time, self.local_index, block, True, self.thread_id
                )
            # Inlined StoreBuffer.push; its drain already ran above at this
            # same time, so it would retire nothing.
            completion = time + latency
            if len(entries) >= store_buffer.capacity:
                stall_ns = max(0.0, entries[0][0] - time)
                issue_time = time + stall_ns
                while entries and entries[0][0] <= issue_time:
                    entries.popleft()
                if issue_time > completion:
                    completion = issue_time
                if stall_ns > 0:
                    stats.store_buffer_stalls += 1
                    stats.store_buffer_stall_ns += stall_ns
                    time = issue_time
            if entries and entries[-1][0] > completion:
                completion = entries[-1][0]
            entries.append((completion, block))
            time += self.cycle_ns
            acc = stats.write_latency
        else:
            stats.reads += 1
            forwarded = False
            if entries:
                # Inlined StoreBuffer.forwards.
                while entries and entries[0][0] <= time:
                    entries.popleft()
                for _completion, pending_block in entries:
                    if pending_block == block:
                        forwarded = True
                        break
            if forwarded:
                latency = socket.l1_latency_ns
                stats.store_forward_hits += 1
            else:
                # Inlined L1 lookup + load hit path.
                l1 = self.l1
                cache_set = l1._sets.get(block % l1.num_sets)
                line = cache_set.pop(block, None) if cache_set is not None else None
                if line is not None:
                    cache_set[block] = line
                    stats.l1_hits += 1
                    latency = socket.l1_latency_ns
                else:
                    stats.l1_misses += 1
                    latency, _source = socket.access_l1_missed(
                        time, self.local_index, block, False, self.thread_id
                    )
            time += latency
            acc = stats.read_latency
        acc.total += latency
        acc.count += 1
        if latency > acc.maximum:
            acc.maximum = latency
        self.time = time
        return time

    def _execute_load(self, block: int) -> None:
        self.stats.reads += 1
        if self.store_buffer.forwards(block, self.time):
            # TSO store-to-load forwarding: the youngest matching store's data
            # is bypassed to the load within the pipeline.
            latency = self.socket.l1_latency_ns
            self.stats.store_forward_hits += 1
        else:
            latency, _source = self.socket.access(
                self.time, self.local_index, block,
                is_write=False, thread_id=self.thread_id,
            )
        self.time += latency
        self.stats.read_latency.add(latency)

    def _execute_store(self, block: int) -> None:
        self.stats.writes += 1
        self.store_buffer.drain(self.time)
        latency, _source = self.socket.access(
            self.time, self.local_index, block,
            is_write=True, thread_id=self.thread_id,
        )
        # The store retires into the buffer; completion is serialised behind
        # older stores (TSO in-order drain), which throttles store bursts by
        # filling the buffer and stalling the core.
        stall_ns = self.store_buffer.push(self.time, block, self.time + latency)
        if stall_ns > 0:
            self.stats.store_buffer_stalls += 1
            self.stats.store_buffer_stall_ns += stall_ns
            self.time += stall_ns
        # The store itself occupies the pipeline for one cycle; its memory
        # latency is hidden by the store buffer.
        self.time += self.cycle_ns
        self.stats.write_latency.add(latency)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Core(id={self.core_id}, t={self.time:.1f}ns)"

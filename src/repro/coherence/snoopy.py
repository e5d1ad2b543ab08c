"""Snoopy coherent DRAM caches (the naive design of section III-A).

Every local DRAM-cache miss is broadcast to all remote sockets.  A remote
socket consults its snoop filter (the baseline's global directory structure,
repurposed as a per-socket block-level filter) and, when it may have the
block, probes its LLC or DRAM cache before responding.  Main memory is
accessed *in parallel* with the snoops so that a miss everywhere does not
serialise behind them, but the transaction cannot complete before the slowest
snoop response -- this is exactly the "slow remote hit" pathology (the
furthest socket's DRAM-cache latency lands on the critical path).

DRAM caches are dirty (they absorb modified LLC victims), so a snoop that
finds a dirty copy must source data from the remote DRAM cache.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..caches.sram_cache import MODIFIED
from ..interconnect.packet import MessageClass
from .messages import ServiceSource
from .protocol_base import GlobalCoherenceProtocol

__all__ = ["SnoopyProtocol"]


class SnoopyProtocol(GlobalCoherenceProtocol):
    """Broadcast snooping over private, dirty DRAM caches."""

    name = "snoopy"
    uses_dram_cache = True
    clean_dram_cache = False

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    #
    # The snoop of each remote socket is inlined into both miss handlers.
    # The snoop filter (the baseline's directory structure) only covers the
    # on-chip caches -- it cannot possibly track the GB-scale DRAM cache,
    # which is the whole storage problem of section III.  Every snoop
    # therefore probes the DRAM-cache array, and that latency is on the
    # critical path of the requester's miss.  Memory is accessed in
    # parallel with the snoops.

    def read_miss(self, now: float, requester: int, block: int) -> Tuple[float, ServiceSource]:
        stats = self.stats
        sockets = self.sockets
        sock = sockets[requester]
        dram_cache = sock.dram_cache
        local_latency = 0.0
        if dram_cache is not None:
            local_latency = sock.dram_predictor_latency_ns
            probe = dram_cache.probe(block)
            if probe.array_accessed:
                local_latency += sock.dram_cache_latency_ns
            if probe.hit:
                stats.dram_cache_hits += 1
                return local_latency, ServiceSource.LOCAL_DRAM_CACHE
            stats.dram_cache_misses += 1

        home = self._home_of_block(block)
        start = now + local_latency
        send = self._net_send
        if home == requester:
            memory_latency = sockets[home].memory.read_fast(start, block)
            stats.memory_reads_local += 1
        else:
            memory_latency = send(start, requester, home, MessageClass.REQUEST)
            memory_latency += sockets[home].memory.read_fast(start + memory_latency, block)
            stats.memory_reads_remote += 1
            memory_latency += send(start + memory_latency, home, requester,
                                   MessageClass.DATA_RESPONSE)

        snoop_latency = 0.0
        data_source: Optional[ServiceSource] = None
        for target, target_socket in enumerate(sockets):
            if target == requester:
                continue
            out = send(start, requester, target, MessageClass.SNOOP)
            probe_latency = target_socket.snoop_filter_latency_ns
            target_dram = target_socket.dram_cache
            if target_dram is not None:
                probe_latency += target_socket.dram_cache_latency_ns
            response_class = MessageClass.ACK
            llc_line = target_socket.llc.peek(block)
            if llc_line is not None:
                probe_latency += target_socket.llc_latency_ns
                if llc_line & MODIFIED:
                    data_source = ServiceSource.REMOTE_LLC
                    response_class = MessageClass.DATA_RESPONSE
                    target_socket.downgrade_block(block)
                    stats.downgrades += 1
                    self._memory_write(start + out + probe_latency, home, block, target)
            elif target_dram is not None and target_dram.dirty_of(block):
                data_source = ServiceSource.REMOTE_DRAM_CACHE
                response_class = MessageClass.DATA_RESPONSE
                # Keep a clean copy and make memory valid again.
                target_dram.mark_clean(block)
                self._memory_write(start + out + probe_latency, home, block, target)
            back = send(start + out + probe_latency, target, requester, response_class)
            latency = out + probe_latency + back
            if latency > snoop_latency:
                snoop_latency = latency

        total = local_latency + max(memory_latency, snoop_latency)
        if data_source is not None:
            return total, data_source
        if home == requester:
            return total, ServiceSource.LOCAL_MEMORY
        return total, ServiceSource.REMOTE_MEMORY

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def write_miss(
        self,
        now: float,
        requester: int,
        block: int,
        *,
        thread_id: int = 0,
        has_shared_copy: bool = False,
    ) -> Tuple[float, ServiceSource]:
        stats = self.stats
        sockets = self.sockets
        local_hit = False
        local_latency = 0.0
        if not has_shared_copy:
            sock = sockets[requester]
            dram_cache = sock.dram_cache
            if dram_cache is not None:
                local_latency = sock.dram_predictor_latency_ns
                probe = dram_cache.probe(block)
                if probe.array_accessed:
                    local_latency += sock.dram_cache_latency_ns
                local_hit = probe.hit
                if local_hit:
                    stats.dram_cache_hits += 1
                else:
                    stats.dram_cache_misses += 1

        home = self._home_of_block(block)
        start = now + local_latency
        send = self._net_send

        # Every copy at every other socket goes.
        snoop_latency = 0.0
        data_source: Optional[ServiceSource] = None
        for target, target_socket in enumerate(sockets):
            if target == requester:
                continue
            out = send(start, requester, target, MessageClass.SNOOP)
            probe_latency = target_socket.snoop_filter_latency_ns
            target_dram = target_socket.dram_cache
            if target_dram is not None:
                probe_latency += target_socket.dram_cache_latency_ns
            response_class = MessageClass.ACK
            llc_line = target_socket.llc.peek(block)
            dram_dirty = target_dram.dirty_of(block) if target_dram is not None else None
            if llc_line is not None:
                probe_latency += target_socket.llc_latency_ns
                if llc_line & MODIFIED:
                    data_source = ServiceSource.REMOTE_LLC
                    response_class = MessageClass.DATA_RESPONSE
            elif dram_dirty:
                data_source = ServiceSource.REMOTE_DRAM_CACHE
                response_class = MessageClass.DATA_RESPONSE
            if dram_dirty is not None:
                target_dram.invalidate(block)
            if llc_line is not None:
                target_socket.invalidate_onchip(block)
            stats.invalidations_sent += 1
            back = send(start + out + probe_latency, target, requester, response_class)
            latency = out + probe_latency + back
            if latency > snoop_latency:
                snoop_latency = latency

        memory_latency = 0.0
        if has_shared_copy or local_hit:
            source = ServiceSource.LOCAL_DRAM_CACHE if local_hit else ServiceSource.LLC
        elif data_source is not None:
            source = data_source
        elif home == requester:
            memory_latency = sockets[home].memory.read_fast(start, block)
            stats.memory_reads_local += 1
            source = ServiceSource.LOCAL_MEMORY
        else:
            memory_latency = send(start, requester, home, MessageClass.REQUEST)
            memory_latency += sockets[home].memory.read_fast(start + memory_latency, block)
            stats.memory_reads_remote += 1
            memory_latency += send(start + memory_latency, home, requester,
                                   MessageClass.DATA_RESPONSE)
            source = ServiceSource.REMOTE_MEMORY

        total = local_latency + max(memory_latency, snoop_latency)
        stats.broadcasts += 1
        if has_shared_copy:
            stats.upgrades += 1
        return total, source

    # ------------------------------------------------------------------
    # Evictions
    # ------------------------------------------------------------------

    def llc_eviction(self, now: float, requester: int, block: int, *, dirty: bool) -> None:
        dram_cache = self.sockets[requester].dram_cache
        if dram_cache is None:
            if dirty:
                self._memory_write(now, self._home_of_block(block), block, requester)
            return
        victim = dram_cache.insert(block, dirty=dirty)
        if victim is not None and victim[1]:
            # A dirty DRAM-cache victim must reach its home memory.  Snoopy
            # keeps no directory, so a clean victim needs nothing.
            victim_block = victim[0]
            self._memory_write(now, self._home_of_block(victim_block), victim_block, requester)

    # ------------------------------------------------------------------
    # Functional (state-only) mirrors -- see GlobalCoherenceProtocol
    # ------------------------------------------------------------------

    def read_miss_functional(self, requester: int, block: int) -> None:
        # The local probe is stateful (predictor and associative LRU).
        dram_cache = self.sockets[requester].dram_cache
        if dram_cache is not None and dram_cache.probe(block).hit:
            return
        # Mirror of read_miss's snoop of each peer: a Modified LLC copy is
        # downgraded, else a dirty DRAM-cache copy is marked clean
        # (mark_clean leaves a clean or absent block alone).
        for target_socket in self.sockets:
            if target_socket.socket_id == requester:
                continue
            llc_line = target_socket.llc.peek(block)
            if llc_line is not None:
                if llc_line & MODIFIED:
                    target_socket.downgrade_block(block)
            elif target_socket.dram_cache is not None:
                target_socket.dram_cache.mark_clean(block)

    def write_miss_functional(
        self, requester: int, block: int, *, thread_id: int = 0,
        has_shared_copy: bool = False,
    ) -> None:
        if not has_shared_copy:
            dram_cache = self.sockets[requester].dram_cache
            if dram_cache is not None:
                dram_cache.probe(block)
        # Mirror of write_miss's snoop of each peer: every copy goes.
        for target_socket in self.sockets:
            if target_socket.socket_id == requester:
                continue
            if target_socket.dram_cache is not None:
                target_socket.dram_cache.invalidate(block)
            target_socket.invalidate_onchip(block)

    def llc_eviction_functional(self, requester: int, block: int, *, dirty: bool) -> None:
        dram_cache = self.sockets[requester].dram_cache
        if dram_cache is not None:
            # Snoopy keeps no directory: its DRAM-cache victim hooks do nothing.
            dram_cache.insert(block, dirty=dirty)

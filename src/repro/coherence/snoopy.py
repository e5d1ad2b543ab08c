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
    # Snoop machinery
    # ------------------------------------------------------------------

    def _snoop_socket(
        self,
        now: float,
        requester: int,
        target: int,
        home: int,
        block: int,
        *,
        invalidate: bool,
    ) -> Tuple[float, Optional[ServiceSource]]:
        """Snoop one remote socket.

        Returns ``(latency, data_source)`` where ``data_source`` is non-None
        when the target supplied (dirty) data.  ``invalidate`` selects the
        write-snoop behaviour (all copies at the target are invalidated).
        """
        target_socket = self.sockets[target]
        send = self._net_send
        stats = self.stats
        out = send(now, requester, target, MessageClass.SNOOP)
        # The snoop filter (the baseline's directory structure) only covers
        # the on-chip caches -- it cannot possibly track the GB-scale DRAM
        # cache, which is the whole storage problem of section III.  Every
        # snoop therefore probes the DRAM-cache array, and that latency is on
        # the critical path of the requester's miss.
        probe = target_socket.snoop_filter_latency_ns
        dram_cache = target_socket.dram_cache
        if dram_cache is not None:
            probe += target_socket.dram_cache_latency_ns
        data_source: Optional[ServiceSource] = None

        llc_line = target_socket.llc.peek(block)
        dram_dirty = dram_cache.dirty_of(block) if dram_cache is not None else None

        if llc_line is not None:
            probe += target_socket.llc_latency_ns
            if llc_line & MODIFIED:
                data_source = ServiceSource.REMOTE_LLC
                if invalidate:
                    target_socket.invalidate_onchip(block)
                else:
                    target_socket.downgrade_block(block)
                    stats.downgrades += 1
                    self._memory_write(now + out + probe, home, block, target)
            elif invalidate:
                target_socket.invalidate_onchip(block)
        elif dram_dirty:
            data_source = ServiceSource.REMOTE_DRAM_CACHE
            if not invalidate:
                # Keep a clean copy and make memory valid again.
                dram_cache.mark_clean(block)
                self._memory_write(now + out + probe, home, block, target)

        if invalidate:
            if dram_dirty is not None:
                dram_cache.invalidate(block)
            target_socket.invalidate_onchip(block)
            stats.invalidations_sent += 1

        response_class = (
            MessageClass.DATA_RESPONSE if data_source is not None else MessageClass.ACK
        )
        back = send(now + out + probe, target, requester, response_class)
        return out + probe + back, data_source

    def _memory_path(self, now: float, requester: int, home: int, block: int) -> float:
        """Latency of the memory access issued in parallel with the snoops."""
        send = self._net_send
        latency = send(now, requester, home, MessageClass.REQUEST)
        latency += self._memory_read(now + latency, home, block, requester)
        latency += send(now + latency, home, requester, MessageClass.DATA_RESPONSE)
        return latency

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read_miss(self, now: float, requester: int, block: int) -> Tuple[float, ServiceSource]:
        hit, local_latency = self._probe_local_dram_cache(now, requester, block)
        if hit:
            return local_latency, ServiceSource.LOCAL_DRAM_CACHE

        home = self._home_of_block(block)
        start = now + local_latency
        memory_latency = self._memory_path(start, requester, home, block)

        snoop_latency = 0.0
        data_source: Optional[ServiceSource] = None
        for target in range(len(self.sockets)):
            if target == requester:
                continue
            latency, source = self._snoop_socket(
                start, requester, target, home, block, invalidate=False
            )
            snoop_latency = max(snoop_latency, latency)
            if source is not None:
                data_source = source

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
        local_hit = False
        local_latency = 0.0
        if not has_shared_copy:
            local_hit, local_latency = self._probe_local_dram_cache(now, requester, block)

        home = self._home_of_block(block)
        start = now + local_latency

        snoop_latency = 0.0
        data_source: Optional[ServiceSource] = None
        for target in range(len(self.sockets)):
            if target == requester:
                continue
            latency, source = self._snoop_socket(
                start, requester, target, home, block, invalidate=True
            )
            snoop_latency = max(snoop_latency, latency)
            if source is not None:
                data_source = source

        memory_latency = 0.0
        if has_shared_copy or local_hit:
            source = ServiceSource.LOCAL_DRAM_CACHE if local_hit else ServiceSource.LLC
        elif data_source is not None:
            source = data_source
        else:
            memory_latency = self._memory_path(start, requester, home, block)
            source = (ServiceSource.LOCAL_MEMORY if home == requester
                      else ServiceSource.REMOTE_MEMORY)

        total = local_latency + max(memory_latency, snoop_latency)
        stats = self.stats
        stats.broadcasts += 1
        if has_shared_copy:
            stats.upgrades += 1
        return total, source

    # ------------------------------------------------------------------
    # Evictions
    # ------------------------------------------------------------------

    def llc_eviction(self, now: float, requester: int, block: int, *, dirty: bool) -> None:
        if self.sockets[requester].dram_cache is not None:
            self._insert_into_dram_cache(now, requester, block, dirty=dirty)
        elif dirty:
            self._memory_write(now, self._home_of_block(block), block, requester)

    # ------------------------------------------------------------------
    # Functional (state-only) mirrors -- see GlobalCoherenceProtocol
    # ------------------------------------------------------------------

    def read_miss_functional(self, requester: int, block: int) -> None:
        # The local probe is stateful (predictor and associative LRU).
        dram_cache = self.sockets[requester].dram_cache
        if dram_cache is not None and dram_cache.probe(block).hit:
            return
        # Mirror of _snoop_socket(invalidate=False) per peer: a Modified LLC
        # copy is downgraded, else a dirty DRAM-cache copy is marked clean
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
        # Mirror of _snoop_socket(invalidate=True) per peer: every copy goes.
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

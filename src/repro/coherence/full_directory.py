"""Inclusive full-directory coherent DRAM caches (the naive design of
section III-B, evaluated as *full-dir*).

The global directory is extended to track every block resident in any DRAM
cache, in addition to the on-chip caches.  The paper models this directory
optimistically: no capacity recalls and the same 10-cycle access latency as
the baseline directory, despite the enormous storage it would require (the
:class:`~repro.coherence.directory.DirectoryCostModel` reproduces that
storage arithmetic).

DRAM caches are dirty: a modified LLC victim is absorbed by the local DRAM
cache without a memory write-back, so a later read from another socket must
be forwarded to the owner and served by its slow DRAM cache -- the "modified
block in a remote DRAM cache" pathology of Fig. 4.
"""

from __future__ import annotations

from typing import Tuple

from ..caches.sram_cache import MODIFIED
from ..interconnect.packet import MessageClass
from .directory import DIR_MODIFIED, SHARER_SHIFT, owner_of
from .messages import ServiceSource
from .protocol_base import GlobalCoherenceProtocol

__all__ = ["FullDirectoryProtocol"]


class FullDirectoryProtocol(GlobalCoherenceProtocol):
    """Inclusive directory tracking LLC and DRAM-cache contents; dirty DRAM caches."""

    name = "full-dir"
    uses_dram_cache = True
    clean_dram_cache = False
    tracks_dram_cache_in_directory = True

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

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
                # The directory continues to track the requester (it already
                # did, by inclusivity), so no global transaction is needed.
                stats.dram_cache_hits += 1
                return local_latency, ServiceSource.LOCAL_DRAM_CACHE
            stats.dram_cache_misses += 1

        home = self._home_of_block(block)
        directory = self.directories[home]
        send = self._net_send
        latency = local_latency
        if home != requester:
            latency += send(now + latency, requester, home, MessageClass.REQUEST)
        latency += directory.latency_ns
        stats.directory_lookups += 1
        entry = directory.lookup(block)

        if (
            entry is not None
            and entry & DIR_MODIFIED
            and entry >> SHARER_SHIFT != 1 << requester
        ):
            owner = owner_of(entry)
            fetch, source = self._fetch_from_owner_any_level(
                now + latency, home, owner, requester, block
            )
            directory.set_shared(block, (owner, requester))
            return latency + fetch, source

        latency += sockets[home].memory.read_fast(now + latency, block)
        if entry is not None and entry & DIR_MODIFIED:
            # A stale Modified entry of the requester's own degrades to
            # Shared rather than violating the directory's M-state invariant.
            directory.set_shared(block, (requester,))
        else:
            directory.add_sharer(block, requester)
        if home == requester:
            stats.memory_reads_local += 1
            return latency, ServiceSource.LOCAL_MEMORY
        stats.memory_reads_remote += 1
        latency += send(now + latency, home, requester, MessageClass.DATA_RESPONSE)
        return latency, ServiceSource.REMOTE_MEMORY

    def _fetch_from_owner_any_level(
        self, now: float, home: int, owner: int, requester: int, block: int
    ) -> Tuple[float, ServiceSource]:
        """Forward a read to the owner socket; serve from its LLC or DRAM cache.

        Returns the latency and the level that served the read.  The owner
        keeps a Shared (clean) copy and its dirty data is written back to
        the home memory so that the Shared invariant (memory not stale)
        holds afterwards.
        """
        owner_socket = self.sockets[owner]
        send = self._net_send
        forward = send(now, home, owner, MessageClass.FORWARD) if home != owner else 0.0
        if owner_socket.llc.contains(block):
            source = ServiceSource.REMOTE_LLC
            probe = owner_socket.llc_latency_ns
            was_dirty = owner_socket.downgrade_block(block)
            self.stats.downgrades += 1
        else:
            # The dirty copy lives in the owner's DRAM cache (Fig. 4 path).
            source = ServiceSource.REMOTE_DRAM_CACHE
            probe = owner_socket.dram_cache_latency_ns
            dram_cache = owner_socket.dram_cache
            was_dirty = dram_cache is not None and bool(dram_cache.dirty_of(block))
            if was_dirty:
                dram_cache.mark_clean(block)
        if was_dirty:
            self._memory_write(now + forward + probe, home, block, owner)
        response = send(now + forward + probe, owner, requester, MessageClass.DATA_RESPONSE)
        return forward + probe + response, source

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
        directory = self.directories[home]
        send = self._net_send
        latency = local_latency
        if home != requester:
            latency += send(now + latency, requester, home, MessageClass.REQUEST)
        latency += directory.latency_ns
        stats.directory_lookups += 1
        entry = directory.lookup(block)

        if (
            entry is not None
            and entry & DIR_MODIFIED
            and entry >> SHARER_SHIFT != 1 << requester
        ):
            owner = owner_of(entry)
            source = (
                ServiceSource.REMOTE_LLC
                if sockets[owner].llc.contains(block)
                else ServiceSource.REMOTE_DRAM_CACHE
            )
            latency += self._invalidate_sockets(now + latency, home, block, 1 << owner)
            latency += send(now + latency, owner, requester, MessageClass.DATA_RESPONSE)
        else:
            invalidation_latency = 0.0
            if entry is not None:
                invalidation_latency = self._invalidate_sockets(
                    now + latency, home, block, entry >> SHARER_SHIFT & ~(1 << requester)
                )
            data_latency = 0.0
            if has_shared_copy:
                source = ServiceSource.LLC
            elif local_hit:
                source = ServiceSource.LOCAL_DRAM_CACHE
            else:
                data_latency = sockets[home].memory.read_fast(now + latency, block)
                if home == requester:
                    stats.memory_reads_local += 1
                    source = ServiceSource.LOCAL_MEMORY
                else:
                    stats.memory_reads_remote += 1
                    data_latency += send(now + latency + data_latency, home, requester,
                                         MessageClass.DATA_RESPONSE)
                    source = ServiceSource.REMOTE_MEMORY
            latency += max(invalidation_latency, data_latency)

        directory.set_modified(block, requester)
        if has_shared_copy:
            stats.upgrades += 1
        return latency, source

    # ------------------------------------------------------------------
    # Evictions
    # ------------------------------------------------------------------

    def llc_eviction(self, now: float, requester: int, block: int, *, dirty: bool) -> None:
        dram_cache = self.sockets[requester].dram_cache
        if dram_cache is None:
            if dirty:
                home = self._home_of_block(block)
                self._memory_write(now, home, block, requester)
                self.directories[home].invalidate(block)
            return

        # The victim (dirty or clean) is absorbed by the local DRAM cache; the
        # directory keeps tracking the block at this socket (inclusive of the
        # DRAM cache), so no directory transition happens here.
        victim = dram_cache.insert(block, dirty=dirty)
        if victim is None:
            return
        victim_block, victim_dirty = victim
        if victim_dirty:
            # A dirty DRAM-cache victim must reach its home memory.
            self._memory_write(now, self._home_of_block(victim_block), victim_block,
                               requester)
        self._drop_dram_cache_victim(victim_block, requester, victim_dirty)

    # ------------------------------------------------------------------
    # Functional (state-only) mirrors -- see GlobalCoherenceProtocol
    # ------------------------------------------------------------------

    def read_miss_functional(self, requester: int, block: int) -> None:
        # The local probe is stateful: it makes the block's predictor region
        # the most recently used, as in the timed path.
        dram_cache = self.sockets[requester].dram_cache
        if dram_cache is not None and dram_cache.probe(block).hit:
            return
        directory = self.directories[self._home_of_block(block)]
        entry = directory.lookup(block)
        if entry is None or not entry & DIR_MODIFIED:
            directory.add_sharer(block, requester)
        elif entry >> SHARER_SHIFT == 1 << requester:
            directory.set_shared(block, (requester,))
        else:
            owner = owner_of(entry)
            # Mirror of _fetch_from_owner_any_level: the owner's on-chip copy
            # is downgraded, else its DRAM-cache copy is marked clean.
            owner_socket = self.sockets[owner]
            if owner_socket.llc.contains(block):
                owner_socket.downgrade_block(block)
            elif owner_socket.dram_cache is not None:
                owner_socket.dram_cache.mark_clean(block)
            directory.set_shared(block, (owner, requester))

    def write_miss_functional(
        self, requester: int, block: int, *, thread_id: int = 0,
        has_shared_copy: bool = False,
    ) -> None:
        sockets = self.sockets
        if not has_shared_copy:
            dram_cache = sockets[requester].dram_cache
            if dram_cache is not None:
                dram_cache.probe(block)
        directory = self.directories[self._home_of_block(block)]
        entry = directory.lookup(block)
        if entry is not None:
            # Mirror of _invalidate_sockets per tracked holder.  A Modified
            # entry's owner is its only sharer, so this covers write_miss's
            # owner branch and its sharer branch.
            targets = entry >> SHARER_SHIFT & ~(1 << requester)
            while targets:
                low = targets & -targets
                targets ^= low
                target_socket = sockets[low.bit_length() - 1]
                if target_socket.dram_cache is not None:
                    target_socket.dram_cache.invalidate(block)
                target_socket.invalidate_onchip(block)
        directory.set_modified(block, requester)

    def llc_eviction_functional(self, requester: int, block: int, *, dirty: bool) -> None:
        dram_cache = self.sockets[requester].dram_cache
        if dram_cache is None:
            if dirty:
                self.directories[self._home_of_block(block)].invalidate(block)
            return
        victim = dram_cache.insert(block, dirty=dirty)
        if victim is not None:
            self._drop_dram_cache_victim(victim[0], requester, victim[1])

    # ------------------------------------------------------------------
    # DRAM-cache victims (directory bookkeeping)
    # ------------------------------------------------------------------

    def _drop_dram_cache_victim(self, block: int, socket_id: int, dirty: bool) -> None:
        """Keep the directory inclusive after ``block`` left ``socket_id``'s
        DRAM cache (a dirty victim has been written back already)."""
        llc_line = self.sockets[socket_id].llc.peek(block)
        if not dirty:
            if llc_line is None:
                self.directories[self._home_of_block(block)].remove_sharer(block, socket_id)
            return
        directory = self.directories[self._home_of_block(block)]
        entry = directory.lookup(block)
        if entry is None:
            return
        if entry == 1 << socket_id + SHARER_SHIFT | DIR_MODIFIED:
            if llc_line is None:
                # The written-back data was the only copy: stop tracking.
                directory.invalidate(block)
            elif not llc_line & MODIFIED:
                # A clean, current on-chip copy remains: downgrade to Shared.
                directory.set_shared(block, (socket_id,))
            # If the LLC still holds the block Modified, the DRAM victim was
            # an older value and the entry must stay Modified.
        elif llc_line is None:
            directory.remove_sharer(block, socket_id)

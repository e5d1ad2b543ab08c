"""C3D + idealised full directory (evaluated as *c3d-full-dir*).

This design combines C3D's clean DRAM caches with an idealised inclusive
global directory (no recalls, baseline 10-cycle access latency) that also
tracks blocks held only in DRAM caches.  Because the directory always knows
the precise sharer set, no broadcast invalidations are ever needed -- the
paper uses this configuration to isolate the performance cost of C3D's
broadcasts (which turns out to be small: 19.2% vs. 20.3% average speedup in
the 4-socket system).

Two behavioural changes relative to :class:`~repro.core.c3d_protocol.C3DProtocol`:

* a block written back by the LLC (PutX) transitions the directory entry to
  *Shared* (owned by the writing socket's DRAM cache) instead of Invalid, so
  the block stays tracked;
* a read served by memory allocates a sharer entry, so every LLC or
  DRAM-cache copy is listed in its home directory entry
  (:meth:`~repro.system.numa_system.NumaSystem.check_invariants` checks it),
  and a write sends directed invalidations to the entry's sharers only --
  none when the block has no entry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from ..coherence.directory import DIR_MODIFIED, SHARER_SHIFT, owner_of
from ..coherence.messages import ServiceSource
from ..interconnect.packet import MessageClass
from .c3d_protocol import C3DProtocol

if TYPE_CHECKING:  # pragma: no cover
    from ..caches.dram_cache import DRAMCache

__all__ = ["C3DFullDirectoryProtocol"]


class C3DFullDirectoryProtocol(C3DProtocol):
    """Clean DRAM caches with an idealised full (inclusive) directory."""

    name = "c3d-full-dir"
    tracks_dram_cache_in_directory = True

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read_miss(self, now: float, requester: int, block: int) -> Tuple[float, ServiceSource]:
        # Plain C3D's read path, except that the idealised directory tracks
        # DRAM-cache residency too: a read served by memory (the untracked
        # case in plain C3D) still allocates a sharer entry here.  Local
        # DRAM-cache hits are already tracked.
        stats = self.stats
        sock = self.sockets[requester]
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
        directory = self.directories[home]
        latency = local_latency
        if home != requester:
            latency += self._net_send(now + latency, requester, home, MessageClass.REQUEST)
        latency += directory.latency_ns
        stats.directory_lookups += 1
        entry = directory.lookup(block)

        if (
            entry is not None
            and entry & DIR_MODIFIED
            and entry >> SHARER_SHIFT != 1 << requester
        ):
            owner = owner_of(entry)
            latency += self._fetch_from_remote_llc(
                now + latency, home, owner, requester, block, downgrade=True
            )
            directory.set_shared(block, (owner, requester))
            return latency, ServiceSource.REMOTE_LLC

        latency += self.sockets[home].memory.read_fast(now + latency, block)
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
        latency += self._net_send(now + latency, home, requester, MessageClass.DATA_RESPONSE)
        return latency, ServiceSource.REMOTE_MEMORY

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
            latency += self._invalidate_sockets(now + latency, home, block, 1 << owner)
            latency += send(now + latency, owner, requester, MessageClass.DATA_RESPONSE)
            source = ServiceSource.REMOTE_LLC
        else:
            # The idealised directory lists every holder, so a block with no
            # entry has none to invalidate.
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
        if dram_cache is not None:
            self._insert_clean(dram_cache, requester, block)

        if dirty:
            home = self._home_of_block(block)
            directory = self.directories[home]
            self._memory_write(now, home, block, requester)
            self.stats.write_throughs += 1
            # Modified -> Shared on write-back: the (clean) copy retained in
            # the DRAM cache keeps the socket in the sharing vector.
            if dram_cache is not None and dram_cache.contains(block):
                directory.set_shared(block, (requester,))
            else:
                directory.invalidate(block)

    # ------------------------------------------------------------------
    # Functional (state-only) mirrors -- see GlobalCoherenceProtocol
    # ------------------------------------------------------------------
    #
    # The timed entry points above diverge from plain C3D (the ideal
    # directory tracks DRAM-cache residency), so this design does not
    # inherit C3DProtocol's mirrors: it mirrors its own handlers.

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
            # Mirror of _fetch_from_remote_llc(downgrade=True).
            self.sockets[owner].downgrade_block(block)
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
            # Mirror of _invalidate_sockets.  A Modified entry's owner is its
            # only sharer, so the tracked targets cover write_miss's owner
            # branch as well as its sharer branch.
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
        if dram_cache is not None:
            self._insert_clean(dram_cache, requester, block)
        if dirty:
            directory = self.directories[self._home_of_block(block)]
            if dram_cache is not None and dram_cache.contains(block):
                directory.set_shared(block, (requester,))
            else:
                directory.invalidate(block)

    # ------------------------------------------------------------------
    # DRAM-cache fills (keep the ideal directory precise)
    # ------------------------------------------------------------------

    def _insert_clean(self, dram_cache: "DRAMCache", socket_id: int, block: int) -> None:
        """Retain a clean copy of an LLC victim in the socket's DRAM cache.

        The cache is clean, so its victim needs no write-back; the socket
        leaves the victim's sharers unless its LLC still holds the block.
        """
        victim = dram_cache.insert(block, dirty=False)
        if victim is not None:
            victim_block = victim[0]
            if not self.sockets[socket_id].llc.contains(victim_block):
                self.directories[self._home_of_block(victim_block)].remove_sharer(
                    victim_block, socket_id
                )

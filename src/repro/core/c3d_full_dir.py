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

from typing import Tuple

from ..coherence.directory import DIR_MODIFIED, SHARER_SHIFT, members, owner_of
from ..coherence.messages import ServiceSource
from ..interconnect.packet import MessageClass
from .c3d_protocol import C3DProtocol

__all__ = ["C3DFullDirectoryProtocol"]


class C3DFullDirectoryProtocol(C3DProtocol):
    """Clean DRAM caches with an idealised full (inclusive) directory."""

    name = "c3d-full-dir"
    tracks_dram_cache_in_directory = True

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read_miss(self, now: float, requester: int, block: int) -> Tuple[float, ServiceSource]:
        latency, source = super().read_miss(now, requester, block)
        # The idealised directory tracks DRAM-cache residency too, so a read
        # served by memory (the untracked case in plain C3D) still allocates
        # a sharer entry here.  Local DRAM-cache hits are already tracked.
        if source is ServiceSource.LOCAL_MEMORY or source is ServiceSource.REMOTE_MEMORY:
            directory = self.directories[self._home_of_block(block)]
            self._directory_note_read_sharer(directory, block, requester)
        return latency, source

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
        directory = self.directories[home]
        send = self._net_send
        stats = self.stats
        latency = local_latency
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
            latency += self._invalidate_remote_socket(
                now + latency, home, owner, block, include_dram_cache=True
            )
            latency += send(now + latency, owner, requester, MessageClass.DATA_RESPONSE)
            source = ServiceSource.REMOTE_LLC
        else:
            # The idealised directory lists every holder, so a block with no
            # entry has none to invalidate.
            targets = (members(entry >> SHARER_SHIFT & ~(1 << requester))
                       if entry is not None else ())
            invalidation_latency = 0.0
            for target in targets:
                invalidation_latency = max(
                    invalidation_latency,
                    self._invalidate_remote_socket(
                        now + latency, home, target, block, include_dram_cache=True
                    ),
                )
            data_latency, source = self._write_data_path(
                now + latency, requester, home, block,
                has_shared_copy=has_shared_copy, local_hit=local_hit,
            )
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
            self._insert_into_dram_cache(now, requester, block, dirty=False)

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
        # The local probe is stateful (predictor and associative LRU).
        dram_cache = self.sockets[requester].dram_cache
        if dram_cache is not None and dram_cache.probe(block).hit:
            return
        directory = self.directories[self._home_of_block(block)]
        entry = directory.lookup(block)
        if (
            entry is not None
            and entry & DIR_MODIFIED
            and entry >> SHARER_SHIFT != 1 << requester
        ):
            owner = owner_of(entry)
            # Mirror of _fetch_from_remote_llc(downgrade=True).
            self.sockets[owner].downgrade_block(block)
            directory.set_shared(block, (owner, requester))
        else:
            # Served by memory: read_miss's note_read_sharer.  It repeats
            # plain C3D's add_sharer on a Shared entry, which changes nothing
            # the second time, so this one call covers both.
            self._directory_note_read_sharer(directory, block, requester)

    def write_miss_functional(
        self, requester: int, block: int, *, thread_id: int = 0,
        has_shared_copy: bool = False,
    ) -> None:
        if not has_shared_copy:
            dram_cache = self.sockets[requester].dram_cache
            if dram_cache is not None:
                dram_cache.probe(block)
        directory = self.directories[self._home_of_block(block)]
        entry = directory.lookup(block)
        # A Modified entry's owner is its only sharer, so the tracked targets
        # cover write_miss's owner branch as well as its sharer branch.
        targets = (members(entry >> SHARER_SHIFT & ~(1 << requester))
                   if entry is not None else ())
        sockets = self.sockets
        for target in targets:
            # Mirror of _invalidate_remote_socket(include_dram_cache=True).
            target_socket = sockets[target]
            if target_socket.dram_cache is not None:
                target_socket.dram_cache.invalidate(block)
            target_socket.invalidate_onchip(block)
        directory.set_modified(block, requester)

    def llc_eviction_functional(self, requester: int, block: int, *, dirty: bool) -> None:
        dram_cache = self.sockets[requester].dram_cache
        if dram_cache is not None:
            self._insert_into_dram_cache_functional(requester, block, dirty=False)
        if dirty:
            directory = self.directories[self._home_of_block(block)]
            if dram_cache is not None and dram_cache.contains(block):
                directory.set_shared(block, (requester,))
            else:
                directory.invalidate(block)

    # ------------------------------------------------------------------
    # DRAM-cache eviction hooks (keep the ideal directory precise)
    # ------------------------------------------------------------------

    def _on_dram_cache_clean_victim(self, block: int, socket_id: int) -> None:
        if not self.sockets[socket_id].llc.contains(block):
            self.directories[self._home_of_block(block)].remove_sharer(block, socket_id)

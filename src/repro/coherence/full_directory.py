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
from .directory import DIR_MODIFIED, SHARER_SHIFT, members, owner_of
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
        hit, local_latency = self._probe_local_dram_cache(now, requester, block)
        if hit:
            # The directory continues to track the requester (it already did,
            # by inclusivity), so no global transaction is needed.
            return local_latency, ServiceSource.LOCAL_DRAM_CACHE

        home = self._home_of_block(block)
        directory = self.directories[home]
        send = self._net_send
        latency = local_latency
        latency += send(now + latency, requester, home, MessageClass.REQUEST)
        latency += directory.latency_ns
        self.stats.directory_lookups += 1
        entry = directory.lookup(block)

        if (
            entry is not None
            and entry & DIR_MODIFIED
            and entry >> SHARER_SHIFT != 1 << requester
        ):
            owner = owner_of(entry)
            latency += self._fetch_from_owner_any_level(
                now + latency, home, owner, requester, block
            )
            source = (
                ServiceSource.REMOTE_LLC
                if self.sockets[owner].llc.contains(block)
                else ServiceSource.REMOTE_DRAM_CACHE
            )
            directory.set_shared(block, (owner, requester))
        else:
            latency += self._memory_read(now + latency, home, block, requester)
            latency += send(now + latency, home, requester, MessageClass.DATA_RESPONSE)
            self._directory_note_read_sharer(directory, block, requester)
            source = (ServiceSource.LOCAL_MEMORY if home == requester
                      else ServiceSource.REMOTE_MEMORY)

        return latency, source

    def _fetch_from_owner_any_level(
        self, now: float, home: int, owner: int, requester: int, block: int
    ) -> float:
        """Forward a read to the owner socket; serve from its LLC or DRAM cache.

        The owner keeps a Shared (clean) copy and its dirty data is written
        back to the home memory so that the Shared invariant (memory not
        stale) holds afterwards.
        """
        owner_socket = self.sockets[owner]
        send = self._net_send
        forward = send(now, home, owner, MessageClass.FORWARD)
        if owner_socket.llc.contains(block):
            probe = owner_socket.llc_latency_ns
            was_dirty = owner_socket.downgrade_block(block)
            self.stats.downgrades += 1
        else:
            # The dirty copy lives in the owner's DRAM cache (Fig. 4 path).
            probe = owner_socket.dram_cache_latency_ns
            dram_cache = owner_socket.dram_cache
            was_dirty = dram_cache is not None and bool(dram_cache.dirty_of(block))
            if was_dirty:
                dram_cache.mark_clean(block)
        if was_dirty:
            self._memory_write(now + forward + probe, home, block, owner)
        response = send(now + forward + probe, owner, requester, MessageClass.DATA_RESPONSE)
        return forward + probe + response

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
            source = (
                ServiceSource.REMOTE_LLC
                if self.sockets[owner].llc.contains(block)
                else ServiceSource.REMOTE_DRAM_CACHE
            )
            latency += self._invalidate_remote_socket(
                now + latency, home, owner, block, include_dram_cache=True
            )
            latency += send(now + latency, owner, requester, MessageClass.DATA_RESPONSE)
        else:
            sharers = (members(entry >> SHARER_SHIFT & ~(1 << requester))
                       if entry is not None else ())
            invalidation_latency = 0.0
            for target in sharers:
                invalidation_latency = max(
                    invalidation_latency,
                    self._invalidate_remote_socket(
                        now + latency, home, target, block, include_dram_cache=True
                    ),
                )
            data_latency = 0.0
            if has_shared_copy:
                source = ServiceSource.LLC
            elif local_hit:
                source = ServiceSource.LOCAL_DRAM_CACHE
            else:
                data_latency = self._memory_read(now + latency, home, block, requester)
                data_latency += send(now + latency + data_latency, home, requester,
                                     MessageClass.DATA_RESPONSE)
                source = (ServiceSource.LOCAL_MEMORY if home == requester
                          else ServiceSource.REMOTE_MEMORY)
            latency += max(invalidation_latency, data_latency)

        directory.set_modified(block, requester)
        if has_shared_copy:
            stats.upgrades += 1
        return latency, source

    # ------------------------------------------------------------------
    # Evictions
    # ------------------------------------------------------------------

    def llc_eviction(self, now: float, requester: int, block: int, *, dirty: bool) -> None:
        if self.sockets[requester].dram_cache is None:
            if dirty:
                home = self._home_of_block(block)
                self._memory_write(now, home, block, requester)
                self.directories[home].invalidate(block)
            return

        # The victim (dirty or clean) is absorbed by the local DRAM cache; the
        # directory keeps tracking the block at this socket (inclusive of the
        # DRAM cache), so no directory transition happens here.
        self._insert_into_dram_cache(now, requester, block, dirty=dirty)

    # ------------------------------------------------------------------
    # Functional (state-only) mirrors -- see GlobalCoherenceProtocol
    # ------------------------------------------------------------------

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
            # Mirror of _fetch_from_owner_any_level: the owner's on-chip copy
            # is downgraded, else its DRAM-cache copy is marked clean.
            owner_socket = self.sockets[owner]
            if owner_socket.llc.contains(block):
                owner_socket.downgrade_block(block)
            elif owner_socket.dram_cache is not None:
                owner_socket.dram_cache.mark_clean(block)
            directory.set_shared(block, (owner, requester))
        else:
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
        if entry is not None:
            # Mirror of _invalidate_remote_socket(include_dram_cache=True) per
            # tracked holder.  A Modified entry's owner is its only sharer, so
            # this covers write_miss's owner branch and its sharer branch.
            sockets = self.sockets
            for target in members(entry >> SHARER_SHIFT & ~(1 << requester)):
                target_socket = sockets[target]
                if target_socket.dram_cache is not None:
                    target_socket.dram_cache.invalidate(block)
                target_socket.invalidate_onchip(block)
        directory.set_modified(block, requester)

    def llc_eviction_functional(self, requester: int, block: int, *, dirty: bool) -> None:
        if self.sockets[requester].dram_cache is None:
            if dirty:
                self.directories[self._home_of_block(block)].invalidate(block)
            return
        self._insert_into_dram_cache_functional(requester, block, dirty=dirty)

    # ------------------------------------------------------------------
    # DRAM-cache eviction hooks (directory bookkeeping)
    # ------------------------------------------------------------------

    def _on_dram_cache_dirty_victim(self, block: int, socket_id: int) -> None:
        directory = self.directories[self._home_of_block(block)]
        entry = directory.lookup(block)
        if entry is None:
            return
        llc_line = self.sockets[socket_id].llc.peek(block)
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

    def _on_dram_cache_clean_victim(self, block: int, socket_id: int) -> None:
        if not self.sockets[socket_id].llc.contains(block):
            self.directories[self._home_of_block(block)].remove_sharer(block, socket_id)

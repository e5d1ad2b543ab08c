"""Baseline inter-socket coherence: directory-tracked LLCs, no DRAM caches.

This is the paper's *baseline* design (section V-A): each socket's memory is
kept coherent across sockets with a global directory that tracks which LLCs
cache each block; there is no DRAM cache, so every LLC miss that cannot be
served by a remote LLC goes to (possibly remote) main memory.
"""

from __future__ import annotations

from typing import Tuple

from ..interconnect.packet import MessageClass
from .directory import DIR_MODIFIED, SHARER_SHIFT, owner_of
from .messages import ServiceSource
from .protocol_base import GlobalCoherenceProtocol

__all__ = ["BaselineProtocol"]


class BaselineProtocol(GlobalCoherenceProtocol):
    """Directory MSI across sockets with no DRAM caches."""

    name = "baseline"
    uses_dram_cache = False
    clean_dram_cache = False

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read_miss(self, now: float, requester: int, block: int) -> Tuple[float, ServiceSource]:
        home = self._home_of_block(block)
        directory = self.directories[home]
        stats = self.stats

        latency = directory.latency_ns
        if home != requester:
            latency = self._net_send(now, requester, home, MessageClass.REQUEST) + latency
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
        home = self._home_of_block(block)
        directory = self.directories[home]
        stats = self.stats

        latency = directory.latency_ns
        if home != requester:
            latency = self._net_send(now, requester, home, MessageClass.REQUEST) + latency
        stats.directory_lookups += 1
        entry = directory.lookup(block)

        if (
            entry is not None
            and entry & DIR_MODIFIED
            and entry >> SHARER_SHIFT != 1 << requester
        ):
            owner = owner_of(entry)
            latency += self._fetch_from_remote_llc(
                now + latency, home, owner, requester, block, downgrade=False
            )
            source = ServiceSource.REMOTE_LLC
        else:
            invalidation_latency = 0.0
            if entry is not None:
                invalidation_latency = self._invalidate_sockets(
                    now + latency, home, block, entry >> SHARER_SHIFT & ~(1 << requester)
                )
            data_latency = 0.0
            if has_shared_copy:
                source = ServiceSource.LLC
            else:
                data_latency = self.sockets[home].memory.read_fast(now + latency, block)
                if home == requester:
                    stats.memory_reads_local += 1
                    source = ServiceSource.LOCAL_MEMORY
                else:
                    stats.memory_reads_remote += 1
                    data_latency += self._net_send(now + latency + data_latency, home,
                                                   requester, MessageClass.DATA_RESPONSE)
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
        if dirty:
            home = self._home_of_block(block)
            self._memory_write(now, home, block, requester)
            self.directories[home].invalidate(block)
        # Clean (Shared) evictions are silent: the sharing vector becomes a
        # stale superset, which is still a valid over-approximation.

    # ------------------------------------------------------------------
    # Functional (state-only) mirrors -- see GlobalCoherenceProtocol
    # ------------------------------------------------------------------

    def read_miss_functional(self, requester: int, block: int) -> None:
        directory = self.directories[self._home_of_block(block)]
        entry = directory.lookup(block)
        if entry is None or not entry & DIR_MODIFIED:
            directory.add_sharer(block, requester)
        elif entry >> SHARER_SHIFT == 1 << requester:
            directory.set_shared(block, (requester,))
        else:
            owner = owner_of(entry)
            # Mirror of _fetch_from_remote_llc(downgrade=True): the owner
            # keeps a Shared copy (the write-through touches only counters).
            self.sockets[owner].downgrade_block(block)
            directory.set_shared(block, (owner, requester))

    def write_miss_functional(
        self, requester: int, block: int, *, thread_id: int = 0,
        has_shared_copy: bool = False,
    ) -> None:
        directory = self.directories[self._home_of_block(block)]
        entry = directory.lookup(block)
        if entry is not None:
            # Mirror of _fetch_from_remote_llc(downgrade=False) for a remote
            # owner, else of _invalidate_sockets over the sharers: a
            # Modified entry's owner is its only sharer, and the baseline
            # has no DRAM caches, so both invalidate the on-chip copies.
            sharers = entry >> SHARER_SHIFT & ~(1 << requester)
            sockets = self.sockets
            while sharers:
                low = sharers & -sharers
                sharers ^= low
                sockets[low.bit_length() - 1].invalidate_onchip(block)
        directory.set_modified(block, requester)

    def llc_eviction_functional(self, requester: int, block: int, *, dirty: bool) -> None:
        if dirty:
            self.directories[self._home_of_block(block)].invalidate(block)

"""Baseline inter-socket coherence: directory-tracked LLCs, no DRAM caches.

This is the paper's *baseline* design (section V-A): each socket's memory is
kept coherent across sockets with a global directory that tracks which LLCs
cache each block; there is no DRAM cache, so every LLC miss that cannot be
served by a remote LLC goes to (possibly remote) main memory.
"""

from __future__ import annotations

from typing import Tuple

from ..interconnect.packet import MessageClass
from .directory import DIR_MODIFIED, SHARER_SHIFT, members, owner_of
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

        latency = self._net_send(now, requester, home, MessageClass.REQUEST)
        latency += directory.latency_ns
        self.stats.directory_lookups += 1
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
            source = ServiceSource.REMOTE_LLC
        else:
            latency += self._memory_read(now + latency, home, block, requester)
            latency += self._net_send(now + latency, home, requester, MessageClass.DATA_RESPONSE)
            self._directory_note_read_sharer(directory, block, requester)
            source = (ServiceSource.LOCAL_MEMORY if home == requester
                      else ServiceSource.REMOTE_MEMORY)

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
        home = self._home_of_block(block)
        directory = self.directories[home]

        latency = self._net_send(now, requester, home, MessageClass.REQUEST)
        latency += directory.latency_ns
        self.stats.directory_lookups += 1
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
            sharers = (members(entry >> SHARER_SHIFT & ~(1 << requester))
                       if entry is not None else ())
            invalidation_latency = 0.0
            for target in sharers:
                invalidation_latency = max(
                    invalidation_latency,
                    self._invalidate_remote_socket(
                        now + latency, home, target, block, include_dram_cache=False
                    ),
                )
            data_latency = 0.0
            if has_shared_copy:
                source = ServiceSource.LLC
            else:
                data_latency = self._memory_read(now + latency, home, block, requester)
                data_latency += self._net_send(now + latency + data_latency, home, requester,
                                               MessageClass.DATA_RESPONSE)
                source = (ServiceSource.LOCAL_MEMORY if home == requester
                          else ServiceSource.REMOTE_MEMORY)
            latency += max(invalidation_latency, data_latency)

        directory.set_modified(block, requester)
        if has_shared_copy:
            self.stats.upgrades += 1
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
        if (
            entry is not None
            and entry & DIR_MODIFIED
            and entry >> SHARER_SHIFT != 1 << requester
        ):
            owner = owner_of(entry)
            # Mirror of _fetch_from_remote_llc(downgrade=True): the owner
            # keeps a Shared copy (the write-through touches only counters).
            self.sockets[owner].downgrade_block(block)
            directory.set_shared(block, (owner, requester))
        else:
            self._directory_note_read_sharer(directory, block, requester)

    def write_miss_functional(
        self, requester: int, block: int, *, thread_id: int = 0,
        has_shared_copy: bool = False,
    ) -> None:
        directory = self.directories[self._home_of_block(block)]
        entry = directory.lookup(block)
        if (
            entry is not None
            and entry & DIR_MODIFIED
            and entry >> SHARER_SHIFT != 1 << requester
        ):
            # Mirror of _fetch_from_remote_llc(downgrade=False).
            self.sockets[owner_of(entry)].invalidate_onchip(block)
        elif entry is not None:
            # Mirror of _invalidate_remote_socket(include_dram_cache=False)
            # per sharer (the baseline has no DRAM caches to probe).
            for target in members(entry >> SHARER_SHIFT & ~(1 << requester)):
                self.sockets[target].invalidate_onchip(block)
        directory.set_modified(block, requester)

    def llc_eviction_functional(self, requester: int, block: int, *, dirty: bool) -> None:
        if dirty:
            self.directories[self._home_of_block(block)].invalidate(block)

"""C3D: Clean Coherent DRAM Caches -- the paper's primary contribution.

The protocol combines (section IV):

* **Clean DRAM caches** -- dirty LLC victims are written through to their
  home memory while a clean copy is retained in the local DRAM cache, so a
  read miss from any socket can always be served by memory (or a remote
  *on-chip* cache) and never by a slow remote DRAM cache.
* **Non-inclusive global directory** -- the directory tracks only blocks held
  in on-chip caches (LLC or higher).  Blocks held solely in DRAM caches are
  untracked; a read to such a block is served by memory without allocating a
  directory entry, and a write to an untracked block broadcasts invalidations
  to every other socket's DRAM cache (and any untracked LLC copies) before
  Modified permission is granted.
* **Broadcast filtering** (optional, section IV-D) -- writes to pages the
  OS/TLB classifier still considers thread-private skip the broadcast.

Directory stable states and transitions follow Fig. 5:

* ``Invalid`` only guarantees that memory is not stale (copies may exist in
  DRAM caches); GetS in Invalid is served by memory and stays untracked;
  GetX in Invalid broadcasts invalidations and moves to Modified.
* ``Modified`` means exactly one socket holds the block on-chip (its DRAM
  cache may additionally hold a stale copy); GetS forwards to the owner and
  moves to Shared; GetX/Upgrade invalidates the owner and changes ownership;
  PutX (LLC write-back) moves to Invalid.
* ``Shared`` keeps a precise-superset sharing vector because the only way in
  is from Modified; GetS adds the requester; GetX invalidates the tracked
  sharers.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..coherence.directory import DIR_MODIFIED, DIR_SHARED, SHARER_SHIFT, owner_of
from ..coherence.messages import ServiceSource
from ..coherence.protocol_base import GlobalCoherenceProtocol
from ..interconnect.packet import MessageClass
from .page_classifier import PrivateSharedClassifier

__all__ = ["C3DProtocol"]


class C3DProtocol(GlobalCoherenceProtocol):
    """Clean Coherent DRAM Caches (C3D)."""

    name = "c3d"
    uses_dram_cache = True
    clean_dram_cache = True

    def __init__(self, system, *, broadcast_filter: bool = False) -> None:
        super().__init__(system)
        self.broadcast_filter = broadcast_filter
        self.classifier: Optional[PrivateSharedClassifier] = getattr(
            system, "page_classifier", None
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read_miss(self, now: float, requester: int, block: int) -> Tuple[float, ServiceSource]:
        # Fast local hit: a read hit in the local DRAM cache completes with no
        # messages to remote sockets (first bullet of section IV-B summary).
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
            # The only place a modified copy can live is a remote *on-chip*
            # cache; forward there.  The owner downgrades to Shared and the
            # dirty data is written through so memory becomes valid again.
            owner = owner_of(entry)
            latency += self._fetch_from_remote_llc(
                now + latency, home, owner, requester, block, downgrade=True
            )
            directory.set_shared(block, (owner, requester))
            return latency, ServiceSource.REMOTE_LLC

        # Shared: served by memory, the requester joins the sharers.
        # Invalid / untracked: memory is guaranteed valid (clean DRAM
        # caches) and the request is NOT inserted into the directory.
        latency += self.sockets[home].memory.read_fast(now + latency, block)
        if entry is not None and entry & DIR_SHARED:
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
            directory.set_modified(block, requester)
            if has_shared_copy:
                stats.upgrades += 1
            return latency, ServiceSource.REMOTE_LLC

        invalidation_latency = 0.0
        if entry is not None and entry & DIR_SHARED:
            invalidation_latency = self._invalidate_sockets(
                now + latency, home, block, entry >> SHARER_SHIFT & ~(1 << requester)
            )
        elif (self.broadcast_filter and self.classifier is not None
              and self.classifier.write_is_private(thread_id, block)):
            # Invalid / untracked, but the page is known thread-private.
            stats.broadcasts_elided += 1
        else:
            # Invalid / untracked: broadcast invalidations to every other
            # socket's DRAM cache (and any untracked LLC copies).
            invalidation_latency = self._invalidate_sockets(
                now + latency, home, block,
                (1 << len(sockets)) - 1 & ~(1 << requester),
                MessageClass.BROADCAST_INVALIDATION,
            )
            stats.broadcasts += 1

        # The data portion of the write.
        data_latency = 0.0
        if has_shared_copy:
            source = ServiceSource.LLC
        elif local_hit:
            # Clean local DRAM-cache copy provides the data; memory is not
            # accessed (its copy is identical).
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
    # Functional (state-only) mirrors -- see GlobalCoherenceProtocol
    # ------------------------------------------------------------------

    def read_miss_functional(self, requester: int, block: int) -> None:
        # The DRAM-cache probe is stateful (it makes the block's predictor
        # region the most recently used) and must run exactly as in the
        # timed path.
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
        elif entry is not None and entry & DIR_SHARED:
            directory.add_sharer(block, requester)
        # Invalid / untracked: served by memory, stays untracked.

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
        if entry is not None and (
            entry & DIR_SHARED or entry >> SHARER_SHIFT != 1 << requester
        ):
            # Tracked: the remote owner of a Modified entry (its only
            # sharer), or the other sharers of a Shared one.
            targets = entry >> SHARER_SHIFT & ~(1 << requester)
        elif (self.broadcast_filter and self.classifier is not None
              and self.classifier.write_is_private(thread_id, block)):
            targets = 0
        else:
            # Invalid / untracked: the broadcast.
            targets = (1 << len(sockets)) - 1 & ~(1 << requester)
        # Mirror of _invalidate_sockets.
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
            # Clean victim cache: inserts never displace dirty data.
            dram_cache.insert(block, dirty=False)
        if dirty:
            self.directories[self._home_of_block(block)].invalidate(block)

    # ------------------------------------------------------------------
    # Evictions
    # ------------------------------------------------------------------

    def llc_eviction(self, now: float, requester: int, block: int, *, dirty: bool) -> None:
        dram_cache = self.sockets[requester].dram_cache
        if dram_cache is not None:
            # Victim cache: retain a clean copy locally regardless of
            # dirtiness.  The DRAM cache is clean, so its victims never need
            # a writeback and can be dropped on the floor directly.
            dram_cache.insert(block, dirty=False)

        if dirty:
            # PutX: write the data through to the home memory; the directory
            # acknowledges and transitions Modified -> Invalid (Fig. 5).
            home = self._home_of_block(block)
            self._memory_write(now, home, block, requester)
            self.stats.write_throughs += 1
            self.directories[home].invalidate(block)
        # Clean (Shared) LLC evictions are silent; the sharing vector becomes
        # a superset, which remains valid.

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

from ..coherence.directory import DIR_MODIFIED, DIR_SHARED, SHARER_SHIFT, members, owner_of
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
        # (Inlined _probe_local_dram_cache: this is the hottest C3D path.)
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
            source = ServiceSource.REMOTE_LLC
        elif entry is not None and entry & DIR_SHARED:
            latency += self._memory_read(now + latency, home, block, requester)
            latency += self._net_send(now + latency, home, requester, MessageClass.DATA_RESPONSE)
            directory.add_sharer(block, requester)
            source = (ServiceSource.LOCAL_MEMORY if home == requester
                      else ServiceSource.REMOTE_MEMORY)
        else:
            # Invalid / untracked: memory is guaranteed valid (clean DRAM
            # caches) and the request is NOT inserted into the directory.
            latency += self._memory_read(now + latency, home, block, requester)
            latency += self._net_send(now + latency, home, requester, MessageClass.DATA_RESPONSE)
            source = (ServiceSource.LOCAL_MEMORY if home == requester
                      else ServiceSource.REMOTE_MEMORY)

        return latency, source

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def _broadcast_invalidations(self, now: float, requester: int, home: int, block: int) -> float:
        """Invalidate every other socket's DRAM-cache (and untracked LLC) copy.

        Returns the completion latency of the broadcast (last ack received).
        """
        worst = 0.0
        send = self._net_send
        stats = self.stats
        sockets = self.sockets
        broadcast_class = MessageClass.BROADCAST_INVALIDATION
        ack_class = MessageClass.ACK
        for target in range(len(sockets)):
            if target == requester:
                continue
            # Fused _invalidate_remote_socket (this loop is the hot C3D
            # write path: one probe + invalidation round trip per peer).
            target_socket = sockets[target]
            out = send(now, home, target, broadcast_class)
            probe = 0.0
            if target_socket.dram_cache is not None:
                target_socket.dram_cache.invalidate(block)
                probe = target_socket.dram_cache_latency_ns
            if target_socket.llc.contains(block):
                probe = max(probe, target_socket.llc_latency_ns)
            target_socket.invalidate_onchip(block)
            ack = send(now + out + probe, target, home, ack_class)
            stats.invalidations_sent += 1
            latency = out + probe + ack
            if latency > worst:
                worst = latency
        stats.broadcasts += 1
        return worst

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
        local_hit = False
        local_latency = 0.0
        if not has_shared_copy:
            # Inlined _probe_local_dram_cache.
            sock = self.sockets[requester]
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
        latency = local_latency
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
            latency += self._invalidate_remote_socket(
                now + latency, home, owner, block, include_dram_cache=True
            )
            latency += self._net_send(now + latency, owner, requester,
                                      MessageClass.DATA_RESPONSE)
            source = ServiceSource.REMOTE_LLC
        elif entry is not None and entry & DIR_SHARED:
            sharers = members(entry >> SHARER_SHIFT & ~(1 << requester))
            invalidation_latency = 0.0
            for target in sharers:
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
        else:
            # Invalid / untracked: unless the page is known thread-private,
            # broadcast invalidations to all other DRAM caches.
            skip_broadcast = False
            if self.broadcast_filter and self.classifier is not None:
                skip_broadcast = self.classifier.write_is_private(thread_id, block)
            if skip_broadcast:
                stats.broadcasts_elided += 1
            else:
                broadcast_latency = self._broadcast_invalidations(
                    now + latency, requester, home, block
                )
            data_latency, source = self._write_data_path(
                now + latency, requester, home, block,
                has_shared_copy=has_shared_copy, local_hit=local_hit,
            )
            if skip_broadcast:
                latency += data_latency
            else:
                latency += max(broadcast_latency, data_latency)

        directory.set_modified(block, requester)
        if has_shared_copy:
            stats.upgrades += 1
        return latency, source

    def _write_data_path(
        self,
        now: float,
        requester: int,
        home: int,
        block: int,
        *,
        has_shared_copy: bool,
        local_hit: bool,
    ) -> Tuple[float, ServiceSource]:
        """Latency and source of the data portion of a write transaction."""
        if has_shared_copy:
            return 0.0, ServiceSource.LLC
        if local_hit:
            # Clean local DRAM-cache copy provides the data; memory is not
            # accessed (its copy is identical).
            return 0.0, ServiceSource.LOCAL_DRAM_CACHE
        data_latency = self._memory_read(now, home, block, requester)
        data_latency += self._net_send(now + data_latency, home, requester,
                                       MessageClass.DATA_RESPONSE)
        return data_latency, (ServiceSource.LOCAL_MEMORY if home == requester
                              else ServiceSource.REMOTE_MEMORY)

    # ------------------------------------------------------------------
    # Functional (state-only) mirrors -- see GlobalCoherenceProtocol
    # ------------------------------------------------------------------

    def read_miss_functional(self, requester: int, block: int) -> None:
        # The DRAM-cache probe is stateful (the predictor's and an
        # associative set's LRU order advance) and must run exactly as in
        # the timed path.
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
        if not has_shared_copy:
            dram_cache = self.sockets[requester].dram_cache
            if dram_cache is not None:
                dram_cache.probe(block)
        directory = self.directories[self._home_of_block(block)]
        entry = directory.lookup(block)
        sockets = self.sockets
        if (
            entry is not None
            and entry & DIR_MODIFIED
            and entry >> SHARER_SHIFT != 1 << requester
        ):
            # Mirror of _invalidate_remote_socket(include_dram_cache=True).
            target_socket = sockets[owner_of(entry)]
            if target_socket.dram_cache is not None:
                target_socket.dram_cache.invalidate(block)
            target_socket.invalidate_onchip(block)
        elif entry is not None and entry & DIR_SHARED:
            for target in members(entry >> SHARER_SHIFT & ~(1 << requester)):
                target_socket = sockets[target]
                if target_socket.dram_cache is not None:
                    target_socket.dram_cache.invalidate(block)
                target_socket.invalidate_onchip(block)
        else:
            # Invalid / untracked: mirror of _broadcast_invalidations unless
            # the broadcast filter classifies the page thread-private.
            skip_broadcast = False
            if self.broadcast_filter and self.classifier is not None:
                skip_broadcast = self.classifier.write_is_private(thread_id, block)
            if not skip_broadcast:
                for target_socket in sockets:
                    if target_socket.socket_id == requester:
                        continue
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

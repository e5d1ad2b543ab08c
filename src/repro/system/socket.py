"""A socket: cores + private L1s + shared LLC + optional DRAM cache + memory.

The socket implements the *intra-socket* part of the memory system (Fig. 1):
per-core L1s kept coherent through a local directory embedded in the LLC,
with the LLC inclusive of the L1s.  Anything the socket cannot satisfy
on-chip is handed to the global coherence protocol
(:mod:`repro.coherence.protocol_base`), which owns the DRAM cache probing,
the global directory and the interconnect.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..caches.dram_cache import DRAMCache
from ..caches.miss_predictor import RegionMissPredictor
from ..caches.sram_cache import DIRTY, MODIFIED, VICTIM_SHIFT, SetAssociativeCache
from ..coherence.local_directory import LocalDirectory
from ..coherence.messages import ServiceSource
from ..memory.address import AddressLayout
from ..memory.main_memory import MemoryController
from ..stats.counters import SimulationStats

if TYPE_CHECKING:  # pragma: no cover
    from ..coherence.protocol_base import GlobalCoherenceProtocol
    from .config import SystemConfig
    from .numa_system import NumaSystem

__all__ = ["Socket"]

#: SRAM line state bits of a store's fill: Modified and dirty.
_WRITTEN = MODIFIED | DIRTY
# Enum members read through the class cost a metaclass lookup each; the LLC
# miss path compares against these once per miss.
_LOCAL_DRAM_CACHE = ServiceSource.LOCAL_DRAM_CACHE
_LOCAL_MEMORY = ServiceSource.LOCAL_MEMORY
_REMOTE_MEMORY = ServiceSource.REMOTE_MEMORY
_REMOTE_LLC = ServiceSource.REMOTE_LLC
_REMOTE_DRAM_CACHE = ServiceSource.REMOTE_DRAM_CACHE


class Socket:
    """One NUMA socket of the simulated machine."""

    def __init__(
        self,
        socket_id: int,
        config: "SystemConfig",
        system: "NumaSystem",
        *,
        with_dram_cache: bool,
    ) -> None:
        self.socket_id = socket_id
        self.config = config
        self.layout: AddressLayout = system.layout
        #: Weak proxies to the machine and to its protocol, set by
        #: ``NumaSystem._link``: the socket owns neither.
        self.system: Optional["NumaSystem"] = None
        self.protocol: Optional["GlobalCoherenceProtocol"] = None
        #: The machine's current counters, re-pointed by ``NumaSystem.stats``.
        self.stats: Optional[SimulationStats] = None

        # -- latencies (ns) -------------------------------------------------
        self.l1_latency_ns = config.l1.latency_ns
        self.llc_latency_ns = config.llc.latency_ns
        self.dram_cache_latency_ns = config.dram_cache.latency_ns
        self.dram_predictor_latency_ns = config.dram_cache.predictor_latency_ns
        self.snoop_filter_latency_ns = config.directory.snoop_filter_latency_ns

        # -- per-core L1s ---------------------------------------------------
        self.l1s: List[SetAssociativeCache] = [
            SetAssociativeCache(
                config.l1.size_bytes,
                config.l1.associativity,
                block_size=config.block_size,
                name=f"socket{socket_id}.l1[{i}]",
            )
            for i in range(config.cores_per_socket)
        ]

        # -- shared LLC + local directory -------------------------------------
        self.llc = SetAssociativeCache(
            config.llc.size_bytes,
            config.llc.associativity,
            block_size=config.block_size,
            name=f"socket{socket_id}.llc",
        )
        self.local_directory = LocalDirectory(
            config.cores_per_socket,
            latency_ns=config.directory.local_latency_ns,
            name=f"socket{socket_id}.local_dir",
        )

        # -- optional DRAM cache ------------------------------------------------
        self.dram_cache: Optional[DRAMCache] = None
        if with_dram_cache:
            predictor = RegionMissPredictor(
                entries=config.dram_cache.predictor_entries,
                region_size=config.dram_cache.region_size,
                layout=self.layout,
            )
            clean = system.protocol_is_clean
            self.dram_cache = DRAMCache(
                config.dram_cache.size_bytes,
                block_size=config.block_size,
                clean=clean,
                name=f"socket{socket_id}.dram_cache",
                miss_predictor=predictor,
            )

        # -- local memory ---------------------------------------------------------
        self.memory = MemoryController(
            latency_ns=config.memory.latency_ns,
            channels=config.memory.channels,
            channel_bandwidth_gbps=config.memory.channel_bandwidth_gbps,
            block_size=config.block_size,
            infinite_bandwidth=config.memory.infinite_bandwidth,
        )

        self._core_ids = [
            socket_id * config.cores_per_socket + i for i in range(config.cores_per_socket)
        ]

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------

    def local_index_of(self, core_id: int) -> int:
        """Map a global core id to the socket-local L1 index."""
        return core_id - self._core_ids[0]

    # ------------------------------------------------------------------
    # The demand access path
    # ------------------------------------------------------------------

    def access(
        self, now: float, core_index: int, block: int, is_write: bool = False,
        thread_id: int = 0,
    ) -> Tuple[float, ServiceSource]:
        """Service one demand access from core ``core_index`` of this socket.

        Returns ``(latency_ns, source)`` where ``latency_ns`` is the critical
        path of the access and ``source`` identifies which level ultimately
        provided the data (or write permission).
        """
        stats = self.stats
        l1 = self.l1s[core_index]
        l1_line = l1.lookup(block)

        if l1_line is not None and (not is_write or l1_line & MODIFIED):
            stats.l1_hits += 1
            if is_write:
                # The LLC line is Modified and dirty already (an invariant
                # NumaSystem.check_invariants checks), so it is not touched.
                l1.mark_dirty(block)
            return self.l1_latency_ns, ServiceSource.L1
        stats.l1_misses += 1
        return self.access_l1_missed(now, core_index, block, is_write, thread_id)

    def access_l1_missed(
        self, now: float, core_index: int, block: int, is_write: bool, thread_id: int
    ) -> Tuple[float, ServiceSource]:
        """Continue a demand access after an L1 miss (or store permission miss).

        Split out of :meth:`access` so the compiled engine can inline the L1
        hit path into the core and enter the memory system here.  The caller
        has already performed the L1 lookup (recency + stats hit
        accounting).
        """
        stats = self.stats
        # LLC level (local directory consulted in parallel with the tag check).
        latency = self.l1_latency_ns + self.local_directory.latency_ns
        llc = self.llc
        llc_line = llc.lookup(block)

        if llc_line is not None:
            latency += self.llc_latency_ns
            stats.llc_hits += 1
            if not is_write:
                latency += self._peer_intervention(core_index, block)
                self._fill_l1(core_index, block, modified=False)
                return latency, ServiceSource.LLC
            if llc_line & MODIFIED:
                self._local_write_update(core_index, block)
                return latency, ServiceSource.LLC
            # Shared in the LLC: data is present but Modified permission is
            # not.  _local_write_update then makes the LLC line Modified.
            miss_latency, source = self.protocol.write_miss(
                now + latency, self.socket_id, block,
                thread_id=thread_id, has_shared_copy=True,
            )
            latency += miss_latency
            self._local_write_update(core_index, block)
            return latency, source

        # LLC miss: hand the request to the global protocol, then install the
        # fill -- LLC and the LLC victim's eviction in this frame, then L1.
        stats.llc_misses += 1
        protocol = self.protocol
        if is_write:
            miss_latency, source = protocol.write_miss(
                now + latency, self.socket_id, block,
                thread_id=thread_id, has_shared_copy=False,
            )
            bits = _WRITTEN
        else:
            miss_latency, source = protocol.read_miss(now + latency, self.socket_id, block)
            bits = 0
        latency += miss_latency

        if source is _LOCAL_DRAM_CACHE:
            stats.served_local_dram_cache += 1
        elif source is _LOCAL_MEMORY:
            stats.served_local_memory += 1
        elif source is _REMOTE_MEMORY:
            stats.served_remote_memory += 1
        elif source is _REMOTE_LLC:
            stats.served_remote_llc += 1
        elif source is _REMOTE_DRAM_CACHE:
            stats.served_remote_dram_cache += 1
        acc = stats.llc_miss_latency
        acc.total += miss_latency
        acc.count += 1
        if miss_latency > acc.maximum:
            acc.maximum = miss_latency

        victim = llc.insert(block, bits)
        if victim is not None:
            # Back-invalidate the victim's L1 copies (the LLC is inclusive);
            # a dirty L1 copy makes the eviction dirty.
            victim_block = victim >> VICTIM_SHIFT
            victim_dirty = victim & DIRTY
            l1s = self.l1s
            for core in self.local_directory.invalidate_block(victim_block):
                line = l1s[core].invalidate(victim_block)
                if line is not None:
                    victim_dirty |= line & DIRTY
            protocol.llc_eviction(now + latency, self.socket_id, victim_block,
                                  dirty=victim_dirty != 0)

        self._fill_l1(core_index, block, modified=is_write)
        return latency, source

    def access_functional(self, core_index: int, block: int, is_write: bool,
                          thread_id: int = 0) -> None:
        """Functional-only access below the L1: advance cache/directory
        state, no timing.

        Used by the sampled engine's fast-forward walk
        (:meth:`repro.engines.sampled.SampledEngine.run_phase_functional`),
        its only caller, which inlines the L1 hit paths and calls this only
        after its own L1 check found a miss, or a Shared line under a store.
        So there is no L1 lookup here: on a miss it would change nothing, and
        under a store to a Shared line the ``_fill_l1`` below moves the line
        to MRU anyway (only peer L1s are touched in between).  The *state*
        transitions mirror :meth:`access_l1_missed` exactly -- LLC recency
        and fills, local-directory bookkeeping, and the global protocol's
        directory/DRAM-cache updates through each design's state-only
        ``*_functional`` mirrors, which send nothing, count nothing and
        compute no latency.  The peer-intervention counter still lands on
        the scratch statistics the caller installed, so a fast-forward
        leaves the measured statistics untouched while every cache stays
        warm.
        """
        llc = self.llc
        llc_line = llc.lookup(block)
        if llc_line is not None:
            if not is_write:
                self._peer_intervention(core_index, block)
                self._fill_l1(core_index, block, modified=False)
                return
            if not llc_line & MODIFIED:
                self.protocol.write_miss_functional(
                    self.socket_id, block,
                    thread_id=thread_id, has_shared_copy=True,
                )
            self._local_write_update(core_index, block)
            return
        if is_write:
            self.protocol.write_miss_functional(
                self.socket_id, block,
                thread_id=thread_id, has_shared_copy=False,
            )
        else:
            self.protocol.read_miss_functional(self.socket_id, block)
        self._fill_functional(core_index, block, modified=is_write)

    # ------------------------------------------------------------------
    # Intra-socket mechanics
    # ------------------------------------------------------------------

    def _peer_intervention(self, core_index: int, block: int) -> float:
        """If a peer core's L1 owns the block modified, source it from there."""
        owner = self.local_directory.intervene(block, core_index)
        if owner is None:
            return 0.0
        self.stats.llc_peer_hits += 1
        # The owner is downgraded to Shared, keeping its dirty bit; the LLC
        # copy is made current.
        owner_l1 = self.l1s[owner]
        owner_line = owner_l1.peek(block)
        if owner_line is not None:
            owner_l1.set_state(block, owner_line & DIRTY)
        return self.l1_latency_ns

    def _local_write_update(self, core_index: int, block: int) -> None:
        """Give core ``core_index`` the only L1 copy and mark everything dirty."""
        for peer in self.local_directory.record_write(block, core_index):
            self.l1s[peer].invalidate(block)
        self._fill_l1(core_index, block, modified=True)
        # The LLC just hit on the block, so it is resident.
        self.llc.set_state(block, _WRITTEN)

    def _fill_l1(self, core_index: int, block: int, *, modified: bool) -> None:
        victim = self.l1s[core_index].insert(block, _WRITTEN if modified else 0)
        if victim is None:
            self.local_directory.record_fill(block, core_index, modified)
            return
        victim_block = victim >> VICTIM_SHIFT
        self.local_directory.record_fill(block, core_index, modified, victim_block)
        if victim & DIRTY:
            # Write the L1 victim's data back into the (inclusive) LLC.
            self.llc.mark_dirty(victim_block)

    def _fill_functional(self, core_index: int, block: int, *, modified: bool) -> None:
        """State-only LLC + L1 fill of :meth:`access_l1_missed`: victims go to
        the protocol's functional mirror."""
        victim = self.llc.insert(block, _WRITTEN if modified else 0)
        if victim is not None:
            victim_block = victim >> VICTIM_SHIFT
            victim_dirty = victim & DIRTY
            for core in self.local_directory.invalidate_block(victim_block):
                line = self.l1s[core].invalidate(victim_block)
                if line is not None:
                    victim_dirty |= line & DIRTY
            self.protocol.llc_eviction_functional(
                self.socket_id, victim_block, dirty=victim_dirty != 0
            )
        self._fill_l1(core_index, block, modified=modified)

    # ------------------------------------------------------------------
    # Entry points used by the global protocols on remote sockets
    # ------------------------------------------------------------------

    def invalidate_onchip(self, block: int) -> bool:
        """Invalidate any LLC / L1 copies of ``block``; returns True if one existed."""
        had_copy = False
        for core in self.local_directory.invalidate_block(block):
            self.l1s[core].invalidate(block)
            had_copy = True
        if self.llc.invalidate(block) is not None:
            had_copy = True
        return had_copy

    def downgrade_block(self, block: int) -> bool:
        """Downgrade an on-chip Modified copy to Shared; returns True if it was dirty."""
        was_dirty = False
        for core in self.local_directory.downgrade(block):
            line = self.l1s[core].downgrade(block)
            if line is not None and line & DIRTY:
                was_dirty = True
        line = self.llc.downgrade(block)
        if line is not None and line & DIRTY:
            was_dirty = True
        return was_dirty

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dram = "+DRAM$" if self.dram_cache is not None else ""
        return f"Socket({self.socket_id}{dram})"

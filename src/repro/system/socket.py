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
_LLC = ServiceSource.LLC
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
        local_directory = self.local_directory
        # LLC level (local directory consulted in parallel with the tag check).
        latency = self.l1_latency_ns + local_directory.latency_ns
        llc = self.llc
        llc_line = llc.lookup(block)

        if llc_line is not None:
            latency += self.llc_latency_ns
            stats.llc_hits += 1
            if not is_write:
                if local_directory.intervene(self.l1s, block, core_index):
                    # A peer L1 owned the block Modified and sourced it.
                    stats.llc_peer_hits += 1
                    latency += self.l1_latency_ns
                local_directory.fill(self.l1s, llc, block, core_index)
                return latency, _LLC
            if llc_line & MODIFIED:
                local_directory.write(self.l1s, llc, block, core_index)
                return latency, _LLC
            # Shared in the LLC: data is present but Modified permission is
            # not.  The local write then makes the LLC line Modified.
            miss_latency, source = self.protocol.write_miss(
                now + latency, self.socket_id, block,
                thread_id=thread_id, has_shared_copy=True,
            )
            latency += miss_latency
            local_directory.write(self.l1s, llc, block, core_index)
            return latency, source

        # LLC miss: hand the request to the global protocol, then install the
        # fill -- LLC, then L1, then the LLC victim's eviction.
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
        if victim is None:
            local_directory.fill(self.l1s, llc, block, core_index, is_write)
            return latency, source
        # The LLC is inclusive: the L1 fill back-invalidates the victim's L1
        # copies, and a dirty one makes the eviction dirty.  The eviction
        # reads none of the state the fill changes, so it may come last.
        victim_block = victim >> VICTIM_SHIFT
        victim |= local_directory.fill(self.l1s, llc, block, core_index, is_write,
                                       victim_block)
        protocol.llc_eviction(now + latency, self.socket_id, victim_block,
                              dirty=victim & DIRTY != 0)
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
        under a store to a Shared line the L1 fill below moves the line to
        MRU anyway (only peer L1s are touched in between).  The *state*
        transitions mirror :meth:`access_l1_missed` exactly, in the same
        order -- LLC recency and fills, local-directory bookkeeping, and the
        global protocol's directory/DRAM-cache updates through each design's
        state-only ``*_functional`` mirrors, which send nothing, count
        nothing and compute no latency -- so a fast-forward leaves the
        measured statistics untouched while every cache stays warm.
        """
        llc = self.llc
        local_directory = self.local_directory
        llc_line = llc.lookup(block)
        if llc_line is not None:
            if not is_write:
                local_directory.intervene(self.l1s, block, core_index)
                local_directory.fill(self.l1s, llc, block, core_index)
                return
            if not llc_line & MODIFIED:
                self.protocol.write_miss_functional(
                    self.socket_id, block,
                    thread_id=thread_id, has_shared_copy=True,
                )
            local_directory.write(self.l1s, llc, block, core_index)
            return
        protocol = self.protocol
        if is_write:
            protocol.write_miss_functional(
                self.socket_id, block,
                thread_id=thread_id, has_shared_copy=False,
            )
        else:
            protocol.read_miss_functional(self.socket_id, block)
        victim = llc.insert(block, _WRITTEN if is_write else 0)
        if victim is None:
            local_directory.fill(self.l1s, llc, block, core_index, is_write)
            return
        victim_block = victim >> VICTIM_SHIFT
        victim |= local_directory.fill(self.l1s, llc, block, core_index, is_write,
                                       victim_block)
        protocol.llc_eviction_functional(self.socket_id, victim_block,
                                         dirty=victim & DIRTY != 0)

    # ------------------------------------------------------------------
    # Entry points used by the global protocols on remote sockets
    # ------------------------------------------------------------------

    def invalidate_onchip(self, block: int) -> bool:
        """Invalidate any LLC / L1 copies of ``block``; returns True if the
        LLC held it."""
        if self.llc.invalidate(block) is None:
            # The LLC includes the L1s (NumaSystem.check_invariants checks
            # it), so no L1 holds the block either.
            return False
        self.local_directory.evict(self.l1s, block)
        return True

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

"""Abstract base class and shared machinery for the global coherence protocols.

Five concrete designs are evaluated in the paper, all implemented as
subclasses of :class:`GlobalCoherenceProtocol`:

==============================  ==========================================
class                           paper name
==============================  ==========================================
``BaselineProtocol``            baseline (no DRAM cache)
``SnoopyProtocol``              snoopy
``FullDirectoryProtocol``       full-dir
``C3DProtocol``                 c3d                  (``repro.core``)
``C3DFullDirectoryProtocol``    c3d-full-dir         (``repro.core``)
==============================  ==========================================

A protocol is invoked by a :class:`~repro.system.socket.Socket` in three
situations:

* :meth:`read_miss` -- a demand read missed in the socket's on-chip hierarchy;
* :meth:`write_miss` -- a store needs Modified permission it does not have
  (covering both write misses and S->M upgrades);
* :meth:`llc_eviction` -- the LLC displaced a block and the victim must be
  handled (write-back, DRAM-cache insertion, directory update).

The two miss entry points return a plain ``(latency, source)`` tuple and
:meth:`llc_eviction` returns nothing: the socket reads no other outcome, so
no per-miss result object is built.  All latencies are in nanoseconds and
describe the critical path of the transaction as seen by the requesting
socket.  Traffic and memory accesses are accounted on the shared
:class:`~repro.stats.counters.SimulationStats`, always read as
``self.stats`` at the time of use: warm-up and fast-forward swap that object,
and assigning ``NumaSystem.stats`` re-points ``self.stats``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..interconnect.packet import MessageClass
from .directory import DIR_MODIFIED, SHARER_SHIFT, GlobalDirectory, members
from .messages import ServiceSource

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance for type checkers only
    from ..stats.counters import SimulationStats
    from ..system.numa_system import NumaSystem
    from ..system.socket import Socket

__all__ = ["GlobalCoherenceProtocol"]


class GlobalCoherenceProtocol(ABC):
    """Common machinery shared by all inter-socket coherence designs."""

    #: Paper name of the design (used by the experiment harness).
    name: str = "abstract"
    #: Whether the design deploys per-socket DRAM caches.
    uses_dram_cache: bool = True
    #: Whether the DRAM caches are kept clean (write-through w.r.t. memory).
    clean_dram_cache: bool = False
    #: Whether the global directory tracks blocks resident only in DRAM caches
    #: (the inclusive full-dir designs).  Used e.g. by the pre-warm facility to
    #: keep the directory consistent with pre-loaded DRAM-cache contents.
    tracks_dram_cache_in_directory: bool = False

    def __init__(self, system: "NumaSystem") -> None:
        #: A weak proxy to the machine, set by ``NumaSystem._link``: the
        #: system owns the protocol, not the other way round.
        self.system: Optional["NumaSystem"] = None
        #: The machine's current counters, re-pointed by ``NumaSystem.stats``.
        self.stats: Optional[SimulationStats] = None
        self.sockets: List["Socket"] = system.sockets
        self.interconnect = system.interconnect
        self.mapper = system.mapper
        self.directories: List[GlobalDirectory] = system.directories
        # Hot-path bindings, called directly by every design.
        self._net_send = system.interconnect.send
        self._home_of_block = system.mapper.home_of_block

    # ------------------------------------------------------------------
    # Abstract entry points
    # ------------------------------------------------------------------

    @abstractmethod
    def read_miss(self, now: float, requester: int, block: int) -> Tuple[float, ServiceSource]:
        """Service a demand read that missed the requester's on-chip hierarchy.

        Returns ``(latency, source)``: the critical-path latency from the
        moment the LLC miss reaches the protocol, and where the data came from.
        """

    @abstractmethod
    def write_miss(
        self,
        now: float,
        requester: int,
        block: int,
        *,
        thread_id: int = 0,
        has_shared_copy: bool = False,
    ) -> Tuple[float, ServiceSource]:
        """Obtain Modified permission (and data if needed) for a store.

        Returns ``(latency, source)`` like :meth:`read_miss`.
        """

    @abstractmethod
    def llc_eviction(self, now: float, requester: int, block: int, *, dirty: bool) -> None:
        """Handle an LLC victim produced by the requester socket."""

    # ------------------------------------------------------------------
    # Functional (state-only) mirrors
    # ------------------------------------------------------------------
    #
    # The sampled engine's fast-forward phase advances architectural state
    # without timing (docs/sampling.md).  Every design overrides these entry
    # points with its own lean mirror, which makes exactly the state changes
    # of its timed counterpart, in the same order -- the requester's
    # stateful DRAM-cache probe, peer invalidations/downgrades, directory
    # transitions, DRAM-cache inserts and their victim hooks -- and nothing
    # else: no network send (so no ``bytes_sent``), memory call, latency
    # arithmetic, counter update or result.
    # The generic defaults below run the timed entry points instead.  They
    # are state-exact only under functional timing (zero-latency
    # interconnect/memory stubs, scratch statistics -- see
    # ``EngineContext.functional_timing``), which the sampled walk always
    # installs, and no design ships them: they are the reference
    # tests/engines/test_functional_mirrors.py compares every lean mirror
    # against, re-running the same sampled simulation with the mirrors
    # forced back to these fallbacks.

    def read_miss_functional(self, requester: int, block: int) -> None:
        """State-only mirror of :meth:`read_miss` (no timing, no result)."""
        self.read_miss(0.0, requester, block)

    def write_miss_functional(
        self, requester: int, block: int, *, thread_id: int = 0,
        has_shared_copy: bool = False,
    ) -> None:
        """State-only mirror of :meth:`write_miss` (no timing, no result)."""
        self.write_miss(
            0.0, requester, block, thread_id=thread_id,
            has_shared_copy=has_shared_copy,
        )

    def llc_eviction_functional(self, requester: int, block: int, *, dirty: bool) -> None:
        """State-only mirror of :meth:`llc_eviction` (no timing, no result)."""
        self.llc_eviction(0.0, requester, block, dirty=dirty)

    # ------------------------------------------------------------------
    # Memory helpers
    # ------------------------------------------------------------------

    def _memory_read(self, now: float, home: int, block: int, requester: int) -> float:
        """Read ``block`` from its home memory; returns the memory latency.

        Also classifies the access as local or remote relative to the
        requesting socket for the Table I / Fig. 8 statistics.
        """
        latency = self.sockets[home].memory.read_fast(now, block)
        stats = self.stats
        if home == requester:
            stats.memory_reads_local += 1
        else:
            stats.memory_reads_remote += 1
        return latency

    def _memory_write(self, now: float, home: int, block: int, requester: int) -> float:
        """Write ``block`` back to its home memory (includes the data transfer).

        Returns the total latency, which callers normally keep off the
        requester's critical path.
        """
        transfer = self.interconnect.send(now, requester, home, MessageClass.WRITEBACK)
        latency = self.sockets[home].memory.write_fast(now + transfer, block)
        stats = self.stats
        if home == requester:
            stats.memory_writes_local += 1
        else:
            stats.memory_writes_remote += 1
        stats.writebacks += 1
        return transfer + latency

    # ------------------------------------------------------------------
    # DRAM-cache helpers
    # ------------------------------------------------------------------

    def _probe_local_dram_cache(
        self, now: float, requester: int, block: int
    ) -> Tuple[bool, float]:
        """Probe the requester's own DRAM cache.

        Returns ``(hit, latency)``.  The latency charges the miss predictor
        and, unless the predictor confidently predicted a miss, the DRAM
        array access.
        """
        sock = self.sockets[requester]
        if sock.dram_cache is None:
            return False, 0.0
        latency = sock.dram_predictor_latency_ns
        probe = sock.dram_cache.probe(block)
        if probe.array_accessed:
            latency += sock.dram_cache_latency_ns
        stats = self.stats
        if probe.hit:
            stats.dram_cache_hits += 1
        else:
            stats.dram_cache_misses += 1
        return probe.hit, latency

    def _insert_into_dram_cache(self, now: float, socket_id: int, block: int, *, dirty: bool) -> None:
        """Insert an LLC victim into the socket's DRAM cache and handle its victim."""
        sock = self.sockets[socket_id]
        if sock.dram_cache is None:
            return
        victim = sock.dram_cache.insert(block, dirty=dirty)
        if victim is None:
            return
        victim_block, victim_dirty = victim
        if victim_dirty:
            # A dirty DRAM-cache victim must reach its home memory
            # (only possible in the non-clean designs).
            victim_home = self._home_of_block(victim_block)
            self._memory_write(now, victim_home, victim_block, socket_id)
            self._on_dram_cache_dirty_victim(victim_block, socket_id)
        else:
            self._on_dram_cache_clean_victim(victim_block, socket_id)

    def _insert_into_dram_cache_functional(self, socket_id: int, block: int, *,
                                           dirty: bool) -> None:
        """State-only :meth:`_insert_into_dram_cache` for a socket that has a
        DRAM cache: the insert and its victim's directory hook, no write-back."""
        victim = self.sockets[socket_id].dram_cache.insert(block, dirty=dirty)
        if victim is None:
            return
        victim_block, victim_dirty = victim
        if victim_dirty:
            self._on_dram_cache_dirty_victim(victim_block, socket_id)
        else:
            self._on_dram_cache_clean_victim(victim_block, socket_id)

    def _on_dram_cache_dirty_victim(self, block: int, socket_id: int) -> None:
        """Directory bookkeeping hook for a dirty DRAM-cache eviction."""

    def _on_dram_cache_clean_victim(self, block: int, socket_id: int) -> None:
        """Directory bookkeeping hook for a clean DRAM-cache eviction."""

    # ------------------------------------------------------------------
    # Remote-socket probe / invalidation helpers
    # ------------------------------------------------------------------

    def _fetch_from_remote_llc(
        self,
        now: float,
        home: int,
        owner: int,
        requester: int,
        block: int,
        *,
        downgrade: bool,
    ) -> float:
        """Home forwards the request to the owner's LLC; owner sends the data.

        With ``downgrade`` the owner keeps a Shared copy and its dirty data is
        written through to the home memory (so that memory is not stale, which
        the Shared state requires); otherwise the owner invalidates its copy.
        Returns the critical-path latency from the moment the home decided to
        forward.
        """
        owner_socket = self.sockets[owner]
        send = self._net_send
        forward = send(now, home, owner, MessageClass.FORWARD)
        probe = owner_socket.llc_latency_ns
        stats = self.stats
        if downgrade:
            was_dirty = owner_socket.downgrade_block(block)
            stats.downgrades += 1
            if was_dirty:
                self._memory_write(now + forward + probe, home, block, owner)
        else:
            owner_socket.invalidate_onchip(block)
            stats.invalidations_sent += 1
        response = send(now + forward + probe, owner, requester, MessageClass.DATA_RESPONSE)
        return forward + probe + response

    def _invalidate_remote_socket(
        self,
        now: float,
        home: int,
        target: int,
        block: int,
        *,
        include_dram_cache: bool,
        message_class: MessageClass = MessageClass.INVALIDATION,
    ) -> float:
        """Invalidate every copy of ``block`` at ``target``; returns round-trip latency."""
        target_socket = self.sockets[target]
        send = self._net_send
        out = send(now, home, target, message_class)
        probe = 0.0
        if include_dram_cache and target_socket.dram_cache is not None:
            target_socket.dram_cache.invalidate(block)
            probe = target_socket.dram_cache_latency_ns
        if target_socket.llc.contains(block):
            probe = max(probe, target_socket.llc_latency_ns)
        target_socket.invalidate_onchip(block)
        ack = send(now + out + probe, target, home, MessageClass.ACK)
        self.stats.invalidations_sent += 1
        return out + probe + ack

    def _directory_note_read_sharer(self, directory: GlobalDirectory, block: int,
                                    requester: int) -> None:
        """Record ``requester`` as a sharer after a read served by memory.

        Handles the (defensive) case of a stale Modified entry by degrading
        it to Shared rather than violating the directory's M-state invariant.
        """
        entry = directory.lookup(block)
        if entry is not None and entry & DIR_MODIFIED:
            directory.set_shared(block, members(entry >> SHARER_SHIFT | 1 << requester))
        else:
            directory.add_sharer(block, requester)

    def describe(self) -> str:
        """One-line human-readable description of the design."""
        dram = "no DRAM cache" if not self.uses_dram_cache else (
            "clean DRAM cache" if self.clean_dram_cache else "dirty DRAM cache"
        )
        return f"{self.name} ({dram})"

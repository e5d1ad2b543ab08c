"""NUMA machine assembly: sockets, interconnect, directories, protocol, cores.

:class:`NumaSystem` wires a :class:`~repro.system.config.SystemConfig` into a
complete simulated machine and exposes the pieces the simulation driver and
the experiments need.  The coherence design is selected by name through
:data:`PROTOCOL_REGISTRY`.

The machine graph is acyclic.  ``NumaSystem`` holds strong references down
to its sockets, protocol, cores, directories and interconnect; the links
that point back up (``Socket.system``, ``GlobalCoherenceProtocol.system``)
or across to the protocol (``Socket.protocol``) are ``weakref.proxy``
objects, set in :meth:`NumaSystem._link`.  A machine its caller drops is
therefore freed by reference counting as soon as the last reference goes,
instead of waiting for a full pass of the cyclic garbage collector.  The
counters are not read through those weak links: each socket and the
protocol hold the current :class:`SimulationStats` themselves, re-pointed
whenever ``NumaSystem.stats`` is assigned, so the per-access reads take no
proxy hop.
"""

from __future__ import annotations

import copy
import weakref
from typing import Dict, List, Optional, Type

from ..caches.sram_cache import DIRTY, MODIFIED
from ..coherence.baseline import BaselineProtocol
from ..coherence.directory import SHARER_SHIFT, GlobalDirectory
from ..coherence.full_directory import FullDirectoryProtocol
from ..coherence.protocol_base import GlobalCoherenceProtocol
from ..coherence.snoopy import SnoopyProtocol
from ..core.c3d_full_dir import C3DFullDirectoryProtocol
from ..core.c3d_protocol import C3DProtocol
from ..core.page_classifier import PrivateSharedClassifier
from ..cpu.processor import Core
from ..interconnect.network import Interconnect
from ..interconnect.topology import make_topology
from ..memory.address import AddressLayout
from ..memory.allocation import AddressMapper, make_policy
from ..stats.counters import SimulationStats
from .config import SystemConfig
from .socket import Socket

__all__ = ["NumaSystem", "PROTOCOL_REGISTRY"]


#: Mapping from the paper's design names to protocol classes.
PROTOCOL_REGISTRY: Dict[str, Type[GlobalCoherenceProtocol]] = {
    "baseline": BaselineProtocol,
    "snoopy": SnoopyProtocol,
    "full-dir": FullDirectoryProtocol,
    "c3d": C3DProtocol,
    "c3d-full-dir": C3DFullDirectoryProtocol,
}


class NumaSystem:
    """A fully assembled multi-socket machine ready to be driven by traces."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self._stats = SimulationStats()
        self.layout = AddressLayout(config.block_size, config.page_size)
        self.policy = make_policy(config.allocation_policy, config.num_sockets)
        self.mapper = AddressMapper(self.policy, self.layout)

        protocol_cls = PROTOCOL_REGISTRY[config.protocol]
        #: Read by sockets while they build their DRAM caches.
        self.protocol_is_clean = protocol_cls.clean_dram_cache

        topology = make_topology(config.interconnect.topology, config.num_sockets)
        self.interconnect = Interconnect(
            topology,
            hop_latency_ns=config.interconnect.hop_latency_ns,
            link_bandwidth_gbps=config.interconnect.link_bandwidth_gbps,
            control_packet_bytes=config.interconnect.control_packet_bytes,
            data_packet_bytes=config.interconnect.data_packet_bytes,
            zero_latency=config.interconnect.zero_latency,
            infinite_bandwidth=config.interconnect.infinite_bandwidth,
        )
        self.directories: List[GlobalDirectory] = [
            GlobalDirectory(socket_id, latency_ns=config.directory.latency_ns)
            for socket_id in range(config.num_sockets)
        ]
        self.page_classifier: Optional[PrivateSharedClassifier] = (
            PrivateSharedClassifier(layout=self.layout) if config.broadcast_filter else None
        )

        self.sockets: List[Socket] = [
            Socket(socket_id, config, self, with_dram_cache=protocol_cls.uses_dram_cache)
            for socket_id in range(config.num_sockets)
        ]

        if issubclass(protocol_cls, C3DProtocol):
            self.protocol: GlobalCoherenceProtocol = protocol_cls(
                self, broadcast_filter=config.broadcast_filter
            )
        else:
            self.protocol = protocol_cls(self)
        self._link()

        self.cores: List[Core] = [
            Core(
                core_id,
                self.sockets[config.socket_of_core(core_id)],
                clock_ghz=config.processor.clock_ghz,
                store_buffer_entries=config.processor.store_buffer_entries,
                thread_id=core_id,
            )
            for core_id in range(config.total_cores)
        ]

    def _link(self) -> None:
        """Point the sockets and the protocol back at this machine, weakly,
        and hand them the current counters.

        One proxy to the system and one to the protocol serve every link.
        """
        system = weakref.proxy(self)
        protocol = weakref.proxy(self.protocol)
        self.protocol.system = system
        for sock in self.sockets:
            sock.system = system
            sock.protocol = protocol
        self.stats = self._stats

    @property
    def stats(self) -> SimulationStats:
        """The counters every component records into.

        Warm-up, fast-forward and :meth:`reset_measurement` swap the object.
        Assigning it re-points each socket's and the protocol's own
        ``stats``, which the hot paths read instead of a weak hop up to the
        system (cores read their socket's).
        """
        return self._stats

    @stats.setter
    def stats(self, stats: SimulationStats) -> None:
        self._stats = stats
        self.protocol.stats = stats
        for sock in self.sockets:
            sock.stats = stats

    def __deepcopy__(self, memo: dict) -> "NumaSystem":
        """Copy the machine and link the copy to itself.

        Deep-copying a ``weakref.proxy`` would copy its referent as a
        second, separate object, so the proxies are kept out of the copy
        (the memo maps them to ``None``) and :meth:`_link` sets the copy's
        links afterwards.
        """
        for link in (self.protocol.system, *(sock.protocol for sock in self.sockets)):
            memo[id(link)] = None
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        clone.__dict__.update(copy.deepcopy(self.__dict__, memo))
        clone._link()
        return clone

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def num_sockets(self) -> int:
        return self.config.num_sockets

    @property
    def num_cores(self) -> int:
        return self.config.total_cores

    def inter_socket_bytes(self) -> int:
        """Total bytes injected into the inter-socket interconnect."""
        return self.interconnect.bytes_sent

    # ------------------------------------------------------------------
    # Measurement control
    # ------------------------------------------------------------------

    def reset_measurement(self) -> None:
        """Discard statistics collected so far (end of a warm-up phase).

        Cache, directory and DRAM-cache *contents* are preserved -- only the
        counters restart -- which is exactly what the paper's warm-up phase
        accomplishes.
        """
        self.stats = SimulationStats()
        self.interconnect.reset_counters()

    # ------------------------------------------------------------------
    # Consistency checking (used by tests and the verification harness)
    # ------------------------------------------------------------------

    def check_invariants(self) -> List[str]:
        """Return a list of invariant violations (empty when consistent).

        Checks, inside each socket, that the LLC includes the L1s, that a
        Modified L1 line has a Modified and dirty LLC line, and that the
        local directory matches the L1s; across sockets, the
        socket-granularity Single-Writer/Multiple-Reader property, the
        clean-DRAM-cache property for clean designs, directory
        Modified-state consistency and, for the designs whose directory
        tracks DRAM-cache residency, that the directory lists every copy.
        """
        violations: List[str] = []
        for sock in self.sockets:
            violations.extend(self._socket_violations(sock))

        # SWMR at socket granularity: at most one socket holds a block Modified.
        # One pass over each tag store: this runs after every point of a sweep.
        modified_holders: Dict[int, List[int]] = {}
        for sock in self.sockets:
            for block, line in sock.llc.lines():
                if line & MODIFIED:
                    modified_holders.setdefault(block, []).append(sock.socket_id)
        for block, holders in modified_holders.items():
            if len(holders) > 1:
                violations.append(
                    f"block {block:#x} Modified in multiple sockets: {holders}"
                )
            other_sharers = [
                sock.socket_id
                for sock in self.sockets
                if sock.socket_id not in holders and sock.llc.contains(block)
            ]
            if other_sharers:
                violations.append(
                    f"block {block:#x} Modified in socket {holders} but also "
                    f"present in {other_sharers}"
                )

        # Clean DRAM caches never hold dirty lines.
        if self.protocol.clean_dram_cache:
            for sock in self.sockets:
                if sock.dram_cache is None:
                    continue
                for block in sock.dram_cache.dirty_blocks():
                    violations.append(
                        f"dirty line {block:#x} in clean DRAM cache of socket "
                        f"{sock.socket_id}"
                    )

        # Directory Modified entries must point at a socket that actually holds
        # the block: on chip for the clean/no-DRAM-cache designs, on chip or in
        # the DRAM cache for the dirty-DRAM-cache designs (full-dir).
        for directory in self.directories:
            for block, owner in directory.modified_entries():
                owner_socket = self.sockets[owner]
                has_copy = owner_socket.llc.contains(block)
                if not has_copy and not self.protocol.clean_dram_cache:
                    has_copy = (
                        owner_socket.dram_cache is not None
                        and owner_socket.dram_cache.contains(block)
                    )
                if not has_copy:
                    violations.append(
                        f"directory[{directory.home_socket}] says block "
                        f"{block:#x} is Modified at socket {owner}, "
                        "which has no on-chip copy"
                    )

        if self.protocol.tracks_dram_cache_in_directory:
            violations.extend(self._untracked_copies())
        return violations

    def _untracked_copies(self) -> List[str]:
        """Each LLC or DRAM-cache copy its home directory entry does not
        list as a sharer.  Streams over the tag stores, building nothing
        per block: this runs after every point of a sweep."""
        violations: List[str] = []
        directories = self.directories
        home_of_block = self.mapper.home_of_block
        for sock in self.sockets:
            bit = 1 << sock.socket_id
            levels = [("LLC", sock.llc.resident_blocks())]
            if sock.dram_cache is not None:
                levels.append(("DRAM cache", sock.dram_cache.resident_blocks()))
            for level, blocks in levels:
                for block in blocks:
                    home = home_of_block(block)
                    entry = directories[home].lookup(block)
                    if entry is None or not entry >> SHARER_SHIFT & bit:
                        violations.append(
                            f"block {block:#x} in the {level} of socket "
                            f"{sock.socket_id}, but directory[{home}] does not "
                            "list that socket as a sharer"
                        )
        return violations

    @staticmethod
    def _socket_violations(sock: Socket) -> List[str]:
        """Inclusion and local-directory consistency inside one socket.

        A store that hits a Modified L1 line sets only the L1 dirty bit, so
        the LLC line must already be Modified and dirty: every fill that
        makes an L1 line Modified makes its LLC line so, and whatever takes
        those bits off the LLC line downgrades or drops the L1 copies too.
        """
        violations: List[str] = []
        name = f"socket {sock.socket_id}"
        llc = sock.llc
        holders: Dict[int, List[int]] = {}
        modified_in: Dict[int, List[int]] = {}
        for core, l1 in enumerate(sock.l1s):
            for block, line in l1.lines():
                holders.setdefault(block, []).append(core)
                llc_line = llc.peek(block)
                if llc_line is None:
                    violations.append(
                        f"block {block:#x} in the L1 of core {core} of {name} "
                        "but not in its LLC"
                    )
                if line & MODIFIED:
                    modified_in.setdefault(block, []).append(core)
                    if llc_line is not None and llc_line != MODIFIED | DIRTY:
                        violations.append(
                            f"block {block:#x} Modified in the L1 of core {core} "
                            f"of {name} but not Modified and dirty in its LLC"
                        )
        for block, cores in modified_in.items():
            if len(cores) > 1:
                violations.append(
                    f"block {block:#x} Modified in several L1s of {name}: {cores}"
                )
        listed = set()
        for block, sharers, owner in sock.local_directory.entries():
            listed.add(block)
            cores = holders.get(block, [])
            if not cores:
                violations.append(
                    f"{name} local directory lists block {block:#x}, which no L1 holds"
                )
            elif sharers != cores:
                violations.append(
                    f"{name} local directory lists sharers {sharers} of block "
                    f"{block:#x}, but the L1s of cores {cores} hold it"
                )
            if owner is not None and modified_in.get(block) != [owner]:
                violations.append(
                    f"{name} local directory says core {owner} owns block "
                    f"{block:#x}, but the L1s holding it Modified are "
                    f"{modified_in.get(block, [])}"
                )
        for block, cores in holders.items():
            if block not in listed:
                violations.append(
                    f"{name} local directory lists sharers [] of block "
                    f"{block:#x}, but the L1s of cores {cores} hold it"
                )
        return violations

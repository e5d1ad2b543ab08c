"""System configuration (Table II) expressed as dataclasses.

The default values reproduce Table II of the paper:

* 32 cores at 3 GHz, 1 IPC, 32-entry store queue, TSO;
* 64 KB / 8-way L1 (3 cycles), 16 MB / 16-way LLC (7-cycle tag + 13-cycle
  data), per-socket;
* 1 GB direct-mapped block-based DRAM cache, 40 ns, 4K-entry region miss
  predictor (2 cycles);
* global directory 10 cycles, local directory 7 cycles;
* ring (4-socket) or point-to-point (2-socket) interconnect, 20 ns per hop,
  25.6 GB/s, 16 B control / 80 B data packets;
* 50 ns main memory, 2 DDR3-1600 channels (12.8 GB/s each) per socket.

Because a pure-Python simulator cannot execute billions of accesses, the
experiment harness uses :meth:`SystemConfig.scaled` to divide capacities by a
common factor while keeping every latency and bandwidth at its Table II
value; see docs/experiments.md, "Fidelity knobs", for why this preserves
the paper's shapes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace

__all__ = [
    "CacheConfig",
    "DRAMCacheConfig",
    "MemoryConfig",
    "InterconnectConfig",
    "DirectoryConfig",
    "ProcessorConfig",
    "SystemConfig",
    "PROTOCOL_NAMES",
    "cycles_to_ns",
]

#: Names of the evaluated designs, as used throughout the experiments.
PROTOCOL_NAMES = ("baseline", "snoopy", "full-dir", "c3d", "c3d-full-dir")


def cycles_to_ns(cycles: float, clock_ghz: float = 3.0) -> float:
    """Convert core cycles to nanoseconds at the given clock."""
    return cycles / clock_ghz


def _require_default(config, *names: str) -> None:
    """Reject a value other than the default for fields the model ignores,
    so no machine silently runs without the setting it was given."""
    for name in names:
        default = type(config).__dataclass_fields__[name].default
        if getattr(config, name) != default:
            raise ValueError(
                f"{type(config).__name__}.{name} must be {default!r} "
                f"(the model has no other), got {getattr(config, name)!r}"
            )


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of an SRAM cache level."""

    size_bytes: int
    associativity: int
    latency_ns: float

    def scaled(self, factor: int, *, floor_bytes: int = 4096) -> "CacheConfig":
        """Return a copy with capacity divided by ``factor`` (not below ``floor_bytes``)."""
        new_size = max(floor_bytes, self.size_bytes // factor)
        return replace(self, size_bytes=new_size)


@dataclass(frozen=True)
class DRAMCacheConfig:
    """Per-socket die-stacked DRAM cache parameters."""

    size_bytes: int = 1 << 30          # 1 GB
    latency_ns: float = 40.0
    predictor_entries: int = 4096
    predictor_latency_ns: float = cycles_to_ns(2)
    region_size: int = 4096
    #: These two configure nothing: every design that has a DRAM cache has
    #: one, and it is direct-mapped.  They are kept, pinned to these values,
    #: only because ``SystemConfig.as_dict()`` is hashed into every stored
    #: result's key; they go at the next deliberate re-key.
    enabled: bool = True
    associativity: int = 1

    def __post_init__(self) -> None:
        _require_default(self, "enabled", "associativity")

    def scaled(self, factor: int, *, floor_bytes: int = 1 << 16) -> "DRAMCacheConfig":
        new_size = max(floor_bytes, self.size_bytes // factor)
        return replace(self, size_bytes=new_size)


@dataclass(frozen=True)
class MemoryConfig:
    """Per-socket main-memory parameters."""

    latency_ns: float = 50.0
    channels: int = 2
    channel_bandwidth_gbps: float = 12.8
    infinite_bandwidth: bool = False


@dataclass(frozen=True)
class InterconnectConfig:
    """Inter-socket interconnect parameters."""

    topology: str = "ring"
    hop_latency_ns: float = 20.0
    link_bandwidth_gbps: float = 25.6
    control_packet_bytes: int = 16
    data_packet_bytes: int = 80
    zero_latency: bool = False
    infinite_bandwidth: bool = False


@dataclass(frozen=True)
class DirectoryConfig:
    """Global and local directory access latencies."""

    latency_ns: float = cycles_to_ns(10)
    local_latency_ns: float = cycles_to_ns(7)
    snoop_filter_latency_ns: float = cycles_to_ns(10)


@dataclass(frozen=True)
class ProcessorConfig:
    """Core pipeline parameters."""

    clock_ghz: float = 3.0
    store_buffer_entries: int = 32
    #: Sizes nothing: the model has no TLB (the paper charges nothing for
    #: translation).  Kept, pinned to this value, only because ``as_dict()``
    #: is hashed into every stored result's key; it goes at the next
    #: deliberate re-key.
    tlb_entries: int = 64

    def __post_init__(self) -> None:
        _require_default(self, "tlb_entries")


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of a simulated machine + protocol choice."""

    num_sockets: int = 4
    cores_per_socket: int = 8
    protocol: str = "c3d"
    allocation_policy: str = "first_touch"
    block_size: int = 64
    page_size: int = 4096
    broadcast_filter: bool = False

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 8, cycles_to_ns(3))
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(16 * 1024 * 1024, 16, cycles_to_ns(20))
    )
    dram_cache: DRAMCacheConfig = field(default_factory=DRAMCacheConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    directory: DirectoryConfig = field(default_factory=DirectoryConfig)
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)

    # -- validation -----------------------------------------------------------

    def __post_init__(self) -> None:
        if self.num_sockets < 1:
            raise ValueError("num_sockets must be >= 1")
        if self.cores_per_socket < 1:
            raise ValueError("cores_per_socket must be >= 1")
        if self.protocol not in PROTOCOL_NAMES:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; expected one of {PROTOCOL_NAMES}"
            )

    # -- derived quantities -----------------------------------------------------

    @property
    def total_cores(self) -> int:
        return self.num_sockets * self.cores_per_socket

    def socket_of_core(self, core_id: int) -> int:
        """Socket housing global core id ``core_id``."""
        return core_id // self.cores_per_socket

    # -- canonical configurations ------------------------------------------------

    @classmethod
    def quad_socket(cls, **overrides) -> "SystemConfig":
        """The paper's 4-socket, 8-core/socket machine with a ring interconnect."""
        defaults = dict(num_sockets=4, cores_per_socket=8,
                        interconnect=InterconnectConfig(topology="ring"))
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def dual_socket(cls, **overrides) -> "SystemConfig":
        """The paper's 2-socket, 16-core/socket machine with a P2P interconnect."""
        defaults = dict(num_sockets=2, cores_per_socket=16,
                        interconnect=InterconnectConfig(topology="p2p"))
        defaults.update(overrides)
        return cls(**defaults)

    # -- transformations -----------------------------------------------------------

    def scaled(self, factor: int) -> "SystemConfig":
        """Scale cache capacities down by ``factor`` (latencies unchanged).

        Working sets in the workload generators are scaled by the same factor
        so hit rates (and therefore all normalised results) are preserved.
        """
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        if factor == 1:
            return self
        return replace(
            self,
            l1=self.l1.scaled(factor, floor_bytes=4 * 1024),
            llc=self.llc.scaled(factor, floor_bytes=64 * 1024),
            dram_cache=self.dram_cache.scaled(factor),
        )

    def with_idealisation(
        self,
        *,
        zero_qpi_latency: bool = False,
        infinite_memory_bandwidth: bool = False,
        infinite_qpi_bandwidth: bool = False,
    ) -> "SystemConfig":
        """Apply the Fig. 2 idealisations to this configuration."""
        interconnect = replace(
            self.interconnect,
            zero_latency=zero_qpi_latency or self.interconnect.zero_latency,
            infinite_bandwidth=infinite_qpi_bandwidth or self.interconnect.infinite_bandwidth,
        )
        memory = replace(
            self.memory,
            infinite_bandwidth=infinite_memory_bandwidth or self.memory.infinite_bandwidth,
        )
        return replace(self, interconnect=interconnect, memory=memory)

    def describe(self) -> str:
        """Human-readable one-line summary (used in reports)."""
        dram = (
            f"{self.dram_cache.size_bytes // (1024 * 1024)}MB DRAM$"
            if self.protocol != "baseline"
            else "no DRAM$"
        )
        return (
            f"{self.num_sockets}-socket x {self.cores_per_socket} cores, "
            f"LLC {self.llc.size_bytes // (1024 * 1024)}MB, {dram}, "
            f"protocol={self.protocol}, policy={self.allocation_policy}"
        )

    def as_dict(self) -> dict:
        """Flatten to a plain dictionary (for experiment records)."""
        return dataclasses.asdict(self)

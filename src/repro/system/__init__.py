"""System assembly: configuration, sockets, the NUMA machine and the driver."""

from .config import (
    PROTOCOL_NAMES,
    CacheConfig,
    DirectoryConfig,
    DRAMCacheConfig,
    InterconnectConfig,
    MemoryConfig,
    ProcessorConfig,
    SystemConfig,
    cycles_to_ns,
)
from .numa_system import PROTOCOL_REGISTRY, NumaSystem
from .simulator import SimulationResult, Simulator
from .socket import Socket

__all__ = [
    "SystemConfig",
    "CacheConfig",
    "DRAMCacheConfig",
    "MemoryConfig",
    "InterconnectConfig",
    "DirectoryConfig",
    "ProcessorConfig",
    "PROTOCOL_NAMES",
    "PROTOCOL_REGISTRY",
    "cycles_to_ns",
    "NumaSystem",
    "Socket",
    "Simulator",
    "SimulationResult",
]


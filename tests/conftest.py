"""Shared fixtures and helpers for the test suite.

Most protocol-level tests want a *tiny* machine whose caches can be filled
and spilled with a handful of accesses, so the fixtures here build scaled-down
configurations explicitly (rather than via ``SystemConfig.scaled``, which is
reserved for the experiment harness).
"""

from __future__ import annotations

import pytest

from repro.caches.dram_cache import DRAMCache
from repro.system.config import (
    CacheConfig,
    DirectoryConfig,
    DRAMCacheConfig,
    InterconnectConfig,
    MemoryConfig,
    ProcessorConfig,
    SystemConfig,
)
from repro.system.numa_system import NumaSystem


def tiny_config(
    protocol: str = "c3d",
    *,
    num_sockets: int = 2,
    cores_per_socket: int = 2,
    llc_bytes: int = 4096,
    l1_bytes: int = 1024,
    dram_cache_bytes: int = 16 * 1024,
    allocation_policy: str = "interleave",
    topology: str = "p2p",
    broadcast_filter: bool = False,
) -> SystemConfig:
    """A machine small enough that a few accesses exercise every structure."""
    return SystemConfig(
        num_sockets=num_sockets,
        cores_per_socket=cores_per_socket,
        protocol=protocol,
        allocation_policy=allocation_policy,
        broadcast_filter=broadcast_filter,
        l1=CacheConfig(l1_bytes, 2, 1.0),
        llc=CacheConfig(llc_bytes, 4, 6.0),
        dram_cache=DRAMCacheConfig(size_bytes=dram_cache_bytes, latency_ns=40.0,
                                   predictor_entries=64, region_size=1024),
        memory=MemoryConfig(latency_ns=50.0, channels=2),
        interconnect=InterconnectConfig(topology=topology, hop_latency_ns=20.0),
        directory=DirectoryConfig(),
        processor=ProcessorConfig(),
    )


def tiny_system(protocol: str = "c3d", **kwargs) -> NumaSystem:
    """Build a :class:`NumaSystem` from :func:`tiny_config`."""
    return NumaSystem(tiny_config(protocol, **kwargs))


@pytest.fixture
def c3d_system() -> NumaSystem:
    return tiny_system("c3d")


@pytest.fixture
def baseline_system() -> NumaSystem:
    return tiny_system("baseline")


@pytest.fixture
def full_dir_system() -> NumaSystem:
    return tiny_system("full-dir")


@pytest.fixture
def snoopy_system() -> NumaSystem:
    return tiny_system("snoopy")


def block_homed_at(system: NumaSystem, home: int, index: int = 0) -> int:
    """Return the ``index``-th block number whose home socket is ``home``.

    With the interleave policy, the home of a block is its page number modulo
    the socket count, so suitable blocks can be constructed directly.
    """
    layout = system.layout
    blocks_per_page = layout.blocks_per_page()
    page = home + index * system.num_sockets
    return page * blocks_per_page


def predicts_miss(cache: DRAMCache, block: int) -> bool:
    """The miss predictor's answer for ``block`` in ``cache``, read through
    :meth:`DRAMCache.probe`, the lookup the simulator runs, on an empty twin
    of ``cache`` that shares its region table: with no line resident, a
    probe accesses the array only for a block predicted present (and, like
    any probe, makes a tracked region of ``cache``'s the most recently
    used)."""
    twin = DRAMCache(
        cache.size_bytes,
        block_size=cache.block_size,
        predictor_entries=cache.predictor_entries,
        region_size=cache.region_size,
    )
    twin._regions = cache._regions
    return not twin.probe(block).array_accessed


def read(system: NumaSystem, socket_id: int, block: int, *, core: int = 0, now: float = 0.0):
    """Issue a demand read through the socket's full access path."""
    return system.sockets[socket_id].access(
        now, core, block, is_write=False, thread_id=core
    )


def write(system: NumaSystem, socket_id: int, block: int, *, core: int = 0, now: float = 0.0):
    """Issue a demand write through the socket's full access path."""
    return system.sockets[socket_id].access(
        now, core, block, is_write=True, thread_id=core
    )


def record_sends(system: NumaSystem) -> list:
    """Log each packet the protocol sends through its network entry point,
    as ``(src, dst, message class)``, in the returned list."""
    sent = []
    send = system.protocol._net_send

    def recording_send(now, src, dst, message_class):
        sent.append((src, dst, message_class))
        return send(now, src, dst, message_class)

    system.protocol._net_send = recording_send
    return sent

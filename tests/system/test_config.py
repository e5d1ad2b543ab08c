"""Tests for the Table II configuration dataclasses."""

import pytest

from repro.system.config import (
    PROTOCOL_NAMES,
    CacheConfig,
    DRAMCacheConfig,
    ProcessorConfig,
    SystemConfig,
    cycles_to_ns,
)


def test_defaults_match_table_ii():
    config = SystemConfig.quad_socket()
    assert config.num_sockets == 4
    assert config.cores_per_socket == 8
    assert config.total_cores == 32
    assert config.l1.size_bytes == 64 * 1024
    assert config.l1.associativity == 8
    assert config.llc.size_bytes == 16 * 1024 * 1024
    assert config.llc.associativity == 16
    assert config.dram_cache.size_bytes == 1 << 30
    assert config.dram_cache.latency_ns == 40.0
    assert config.memory.latency_ns == 50.0
    assert config.memory.channels == 2
    assert config.interconnect.hop_latency_ns == 20.0
    assert config.interconnect.topology == "ring"
    assert config.interconnect.control_packet_bytes == 16
    assert config.interconnect.data_packet_bytes == 80
    assert config.processor.clock_ghz == 3.0
    assert config.processor.store_buffer_entries == 32


def test_dual_socket_configuration():
    config = SystemConfig.dual_socket()
    assert config.num_sockets == 2
    assert config.cores_per_socket == 16
    assert config.total_cores == 32
    assert config.interconnect.topology == "p2p"


def test_cycles_to_ns():
    assert cycles_to_ns(3) == pytest.approx(1.0)
    assert cycles_to_ns(10) == pytest.approx(10 / 3)


def test_core_to_socket_mapping():
    config = SystemConfig.quad_socket()
    assert config.socket_of_core(0) == 0
    assert config.socket_of_core(7) == 0
    assert config.socket_of_core(8) == 1


def test_scaling_divides_capacities_and_keeps_latencies():
    config = SystemConfig.quad_socket().scaled(64)
    assert config.llc.size_bytes == 16 * 1024 * 1024 // 64
    assert config.dram_cache.size_bytes == (1 << 30) // 64
    assert config.memory.latency_ns == 50.0
    assert config.dram_cache.latency_ns == 40.0
    assert SystemConfig.quad_socket().scaled(1) == SystemConfig.quad_socket()


def test_scaling_respects_floors():
    config = SystemConfig.quad_socket().scaled(1 << 20)
    assert config.l1.size_bytes >= 4 * 1024
    assert config.llc.size_bytes >= 64 * 1024
    with pytest.raises(ValueError):
        SystemConfig.quad_socket().scaled(0)


def test_with_protocol_and_idealisation():
    config = SystemConfig.quad_socket(protocol="baseline")
    ideal = config.with_idealisation(zero_qpi_latency=True, infinite_memory_bandwidth=True)
    assert ideal.interconnect.zero_latency
    assert ideal.memory.infinite_bandwidth
    assert not ideal.interconnect.infinite_bandwidth


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        SystemConfig(protocol="mesi-magic")
    assert set(PROTOCOL_NAMES) == {"baseline", "snoopy", "full-dir", "c3d", "c3d-full-dir"}


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        SystemConfig(num_sockets=0)
    with pytest.raises(ValueError):
        SystemConfig(cores_per_socket=0)


def test_describe_and_as_dict():
    config = SystemConfig.quad_socket()
    text = config.describe()
    assert "4-socket" in text and "c3d" in text
    flattened = config.as_dict()
    assert flattened["llc"]["size_bytes"] == 16 * 1024 * 1024


def test_cache_config_scaled_floor():
    cache = CacheConfig(1024, 2, 1.0)
    assert cache.scaled(10, floor_bytes=512).size_bytes == 512
    dram = DRAMCacheConfig(size_bytes=1 << 20)
    assert dram.scaled(1).size_bytes == 1 << 20


@pytest.mark.parametrize("make", [
    lambda: DRAMCacheConfig(associativity=2),
    lambda: DRAMCacheConfig(enabled=False),
    lambda: ProcessorConfig(tlb_entries=128),
], ids=["associativity", "enabled", "tlb_entries"])
def test_fields_kept_only_for_the_store_key_reject_other_values(make):
    """These fields configure nothing; they stay only because the machine's
    ``as_dict()`` is hashed into every stored result's key.  A value the
    model would silently ignore is refused."""
    with pytest.raises(ValueError, match="must be"):
        make()

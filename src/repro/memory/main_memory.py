"""Main-memory (DDR) timing model.

Each socket owns one memory controller with a number of DDR channels
(Table II: 50 ns access latency, DDR3-1600 at 12.8 GB/s per channel, 2
channels per socket).  The model captures the two effects the paper's
evaluation depends on:

* a fixed **access latency** paid by every access, and
* **bandwidth queueing**: each channel can only transfer so many bytes per
  nanosecond, so when the offered load exceeds channel bandwidth, later
  accesses observe queueing delay.  Fig. 2's ``inf_mem_bw`` idealisation is
  modelled by disabling the queueing term.

Accesses are mapped to channels by block address (low-order interleaving),
which matches commodity controllers and spreads the load evenly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = ["MemoryAccessResult", "MemoryChannel", "MemoryController"]


@dataclass
class MemoryAccessResult:
    """Outcome of a single memory access.

    ``latency`` is the total time the access occupied the critical path
    (queueing + device latency); ``queue_delay`` is the queueing component.
    """

    latency: float
    queue_delay: float


class MemoryChannel:
    """A single DDR channel with busy-until bandwidth accounting.

    An access reserves the channel for ``size / bandwidth`` ns starting no
    earlier than its arrival, and waits while earlier transfers still hold
    it (no wait when bandwidth is idealised as infinite).  The controller's
    ``read_fast``/``write_fast`` apply this to the block's channel.

    Trace-driven simulation presents accesses in approximately -- but not
    exactly -- increasing time order (cores run slightly ahead of or behind
    one another).  An access that arrives "in the past" relative to the
    latest arrival seen so far is assumed to be slotted into an earlier idle
    slot and is charged no queueing delay; charging it against
    ``busy_until`` would let small ordering skew snowball into large
    artificial queueing.
    """

    def __init__(self, bandwidth_bytes_per_ns: float, *, infinite_bandwidth: bool = False) -> None:
        if bandwidth_bytes_per_ns <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth_bytes_per_ns = bandwidth_bytes_per_ns
        self.infinite_bandwidth = infinite_bandwidth
        self.busy_until = 0.0
        self.last_arrival = 0.0


class MemoryController:
    """Per-socket memory controller with interleaved channels.

    Parameters
    ----------
    latency_ns:
        Device access latency (row activation + column access + transfer
        start), paid by every access.
    channels:
        Number of DDR channels.
    channel_bandwidth_gbps:
        Peak bandwidth per channel in GB/s.
    block_size:
        Transfer size of a cache-block access in bytes.
    infinite_bandwidth:
        When True, bandwidth queueing is disabled (Fig. 2 idealisation).
    """

    def __init__(
        self,
        *,
        latency_ns: float = 50.0,
        channels: int = 2,
        channel_bandwidth_gbps: float = 12.8,
        block_size: int = 64,
        infinite_bandwidth: bool = False,
    ) -> None:
        if channels < 1:
            raise ValueError("channels must be >= 1")
        if latency_ns < 0:
            raise ValueError("latency_ns must be non-negative")
        self.latency_ns = latency_ns
        self.block_size = block_size
        self.channels: List[MemoryChannel] = [
            MemoryChannel(channel_bandwidth_gbps, infinite_bandwidth=infinite_bandwidth)
            for _ in range(channels)
        ]

    # -- access paths ---------------------------------------------------------

    def read(self, now: float, block: int) -> MemoryAccessResult:
        """Perform a block read; returns the critical-path latency."""
        queue_delay = self.read_fast(now, block) - self.latency_ns
        return MemoryAccessResult(latency=self.latency_ns + queue_delay, queue_delay=queue_delay)

    def read_fast(self, now: float, block: int) -> float:
        """Hot-path block read; returns just the critical-path latency (ns)."""
        channel = self.channels[block % len(self.channels)]
        # Busy-until accounting (the MemoryChannel class docstring).
        if channel.infinite_bandwidth or now < channel.last_arrival:
            return self.latency_ns
        channel.last_arrival = now
        service_time = self.block_size / channel.bandwidth_bytes_per_ns
        busy_until = channel.busy_until
        if busy_until > now:
            channel.busy_until = busy_until + service_time
            # latency + (busy_until - now); write_fast adds left to right.
            # The two round differently and both are pinned.
            return self.latency_ns + (busy_until - now)
        channel.busy_until = now + service_time
        return self.latency_ns

    def write(self, now: float, block: int) -> MemoryAccessResult:
        """Perform a block write.

        Writes consume channel bandwidth (so they can congest reads) but are
        not on the critical path of the issuing core; the returned latency is
        reported for completeness and used only for store-buffer drain
        modelling.
        """
        queue_delay = self.write_fast(now, block) - self.latency_ns
        return MemoryAccessResult(latency=self.latency_ns + queue_delay, queue_delay=queue_delay)

    def write_fast(self, now: float, block: int) -> float:
        """Hot-path block write; returns just the latency (ns)."""
        channel = self.channels[block % len(self.channels)]
        # Busy-until accounting (the MemoryChannel class docstring).
        if channel.infinite_bandwidth or now < channel.last_arrival:
            return self.latency_ns
        channel.last_arrival = now
        service_time = self.block_size / channel.bandwidth_bytes_per_ns
        busy_until = channel.busy_until
        if busy_until > now:
            channel.busy_until = busy_until + service_time
            return self.latency_ns + busy_until - now
        channel.busy_until = now + service_time
        return self.latency_ns

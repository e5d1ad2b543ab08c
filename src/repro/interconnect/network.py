"""Inter-socket network model combining a topology, per-link bandwidth and
per-hop latency, counting the bytes it carries.

Table II: 20 ns per hop one way (40 ns round trip per hop, as used by the
methodology section), 25.6 GB/s per link, 16-byte control / 80-byte data
packets.  Fig. 2's idealisations map to ``zero_latency`` (0-QPI-latency) and
``infinite_bandwidth`` (inf-QPI-bandwidth).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .link import Link
from .packet import CONTROL_PACKET_BYTES, DATA_PACKET_BYTES, MessageClass, PacketKind
from .topology import Topology

__all__ = ["Interconnect"]


class Interconnect:
    """The socket-to-socket interconnect (QPI/HyperTransport-like)."""

    def __init__(
        self,
        topology: Topology,
        *,
        hop_latency_ns: float = 20.0,
        link_bandwidth_gbps: float = 25.6,
        control_packet_bytes: int = CONTROL_PACKET_BYTES,
        data_packet_bytes: int = DATA_PACKET_BYTES,
        zero_latency: bool = False,
        infinite_bandwidth: bool = False,
    ) -> None:
        if hop_latency_ns < 0:
            raise ValueError("hop_latency_ns must be non-negative")
        self.topology = topology
        self.hop_latency_ns = 0.0 if zero_latency else hop_latency_ns
        self.control_packet_bytes = control_packet_bytes
        self.data_packet_bytes = data_packet_bytes
        self.zero_latency = zero_latency
        self.infinite_bandwidth = infinite_bandwidth
        self._links: Dict[Tuple[int, int], Link] = {
            (a, b): Link(a, b, link_bandwidth_gbps, infinite_bandwidth=infinite_bandwidth)
            for a, b in topology.links()
        }
        # Route table: topologies are static, so ``_route_table[src][dst]``
        # holds the route's Link objects and its hop latency (hops x hop
        # latency), resolved once so a send does no per-hop lookups.
        self._route_table: List[List[Tuple[Tuple[Link, ...], float]]] = []
        for a in range(topology.num_sockets):
            row = []
            for b in range(topology.num_sockets):
                links = tuple(self._links[hop] for hop in topology.route(a, b))
                row.append((links, self.hop_latency_ns * len(links)))
            self._route_table.append(row)
        # Physical packet size per message class, precomputed so the hot path
        # never evaluates the MessageClass.kind property.
        self._packet_sizes: Dict[MessageClass, int] = {
            cls: (self.data_packet_bytes if cls.kind is PacketKind.DATA
                  else self.control_packet_bytes)
            for cls in MessageClass
        }
        # The network's only counter: NumaSystem.inter_socket_bytes and the
        # sampled engines' windows read it.
        self.bytes_sent = 0

    # -- basic properties -----------------------------------------------------

    @property
    def num_sockets(self) -> int:
        return self.topology.num_sockets

    # -- transfers ------------------------------------------------------------

    def send(self, now: float, src: int, dst: int, message_class: MessageClass) -> float:
        """Send one packet from ``src`` to ``dst``; return its network latency.

        A same-socket "send" is free and generates no traffic (the message
        never leaves the chip).
        """
        if src == dst:
            return 0.0
        size = self._packet_sizes[message_class]
        links, latency = self._route_table[src][dst]
        arrival = now
        for link in links:
            # Busy-until bandwidth accounting (the Link class docstring).
            if not link.infinite_bandwidth and arrival >= link.last_arrival:
                service_time = size / link.bandwidth_bytes_per_ns
                link.last_arrival = arrival
                busy_until = link.busy_until
                if busy_until > arrival:
                    latency += busy_until - arrival
                    link.busy_until = busy_until + service_time
                else:
                    link.busy_until = arrival + service_time
            arrival = now + latency

        self.bytes_sent += size
        return latency

    def reset_counters(self) -> None:
        """Zero the byte counter (used when a warm-up phase ends)."""
        self.bytes_sent = 0

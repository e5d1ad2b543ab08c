"""Inter-socket interconnect substrate: topologies, links, packets, network."""

from .link import Link
from .network import Interconnect
from .packet import (
    CONTROL_PACKET_BYTES,
    DATA_PACKET_BYTES,
    MessageClass,
    PacketKind,
)
from .topology import (
    PointToPointTopology,
    RingTopology,
    Topology,
    make_topology,
)

__all__ = [
    "Interconnect",
    "Link",
    "MessageClass",
    "PacketKind",
    "CONTROL_PACKET_BYTES",
    "DATA_PACKET_BYTES",
    "Topology",
    "RingTopology",
    "PointToPointTopology",
    "make_topology",
]

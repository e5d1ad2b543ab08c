"""Inter-socket interconnect topologies.

The paper models a ring for the 4-socket machine and a point-to-point link
for the 2-socket machine (Table II).  A topology answers one question:
which directed links a packet traverses from one socket to another.  Each
link is one hop, costing the configured per-hop latency, and carries the
packet's bytes for bandwidth accounting.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Tuple

__all__ = ["Topology", "RingTopology", "PointToPointTopology", "make_topology"]


class Topology(ABC):
    """Abstract socket-to-socket topology."""

    name = "abstract"

    def __init__(self, num_sockets: int) -> None:
        if num_sockets < 1:
            raise ValueError("num_sockets must be >= 1")
        self.num_sockets = num_sockets

    @abstractmethod
    def route(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """Return the list of directed links ``(a, b)`` from ``src`` to ``dst``."""

    def links(self) -> List[Tuple[int, int]]:
        """All directed links present in the topology."""
        seen = set()
        for a in range(self.num_sockets):
            for b in range(self.num_sockets):
                for link in self.route(a, b):
                    seen.add(link)
        return sorted(seen)

    def _validate(self, socket: int) -> None:
        if not 0 <= socket < self.num_sockets:
            raise ValueError(f"socket {socket} out of range [0, {self.num_sockets})")


class RingTopology(Topology):
    """Bidirectional ring; packets take the shorter direction."""

    name = "ring"

    def route(self, src: int, dst: int) -> List[Tuple[int, int]]:
        self._validate(src)
        self._validate(dst)
        if src == dst:
            return []
        n = self.num_sockets
        clockwise = (dst - src) % n
        counter = (src - dst) % n
        step = 1 if clockwise <= counter else -1
        links = []
        current = src
        while current != dst:
            nxt = (current + step) % n
            links.append((current, nxt))
            current = nxt
        return links


class PointToPointTopology(Topology):
    """Direct link between every pair of sockets (the 2-socket machine's QPI)."""

    name = "p2p"

    def route(self, src: int, dst: int) -> List[Tuple[int, int]]:
        self._validate(src)
        self._validate(dst)
        if src == dst:
            return []
        return [(src, dst)]


def make_topology(name: str, num_sockets: int) -> Topology:
    """Create a topology by name: ``ring`` or ``p2p``.

    Each machine has one spelling, so it hashes to one store key.
    """
    if name == "ring":
        return RingTopology(num_sockets)
    if name == "p2p":
        return PointToPointTopology(num_sockets)
    raise ValueError(f"unknown topology {name!r}; expected 'ring' or 'p2p'")

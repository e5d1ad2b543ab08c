"""Directed inter-socket link with bandwidth (busy-until) accounting."""

from __future__ import annotations

__all__ = ["Link"]


class Link:
    """One directed inter-socket link (e.g. one direction of a QPI link).

    Table II gives 25.6 GB/s per link.  Like the memory channels, the link
    uses busy-until accounting: a packet arriving while the link is still
    serialising earlier packets waits for its turn, which is how QPI
    congestion manifests as latency.  Packets that arrive out of time order
    (trace-driven core skew) are assumed to use an earlier idle slot and
    are charged no queueing delay -- see
    :class:`repro.memory.main_memory.MemoryChannel` for why.  Fig. 2's
    ``inf_qpi_bw`` idealisation disables the queueing term.
    :meth:`repro.interconnect.network.Interconnect.send` applies the rule
    to each link of a packet's route.
    """

    def __init__(self, src: int, dst: int, bandwidth_bytes_per_ns: float,
                 *, infinite_bandwidth: bool = False) -> None:
        if bandwidth_bytes_per_ns <= 0:
            raise ValueError("bandwidth must be positive")
        self.src = src
        self.dst = dst
        self.bandwidth_bytes_per_ns = bandwidth_bytes_per_ns
        self.infinite_bandwidth = infinite_bandwidth
        self.busy_until = 0.0
        self.last_arrival = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.src}->{self.dst}, busy until {self.busy_until} ns)"

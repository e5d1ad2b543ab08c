"""Store buffer model (Table II: 32-entry store queue, TSO).

Stores retire into the buffer and drain to the memory system in the
background, so write latency is normally off the critical path.  The buffer
affects performance in two ways the paper relies on:

* when it fills up, the core stalls until the oldest store completes (this is
  how expensive write transactions -- e.g. C3D broadcasts -- could hurt, and
  the evaluation shows they rarely do);
* loads check the buffer first (TSO store-to-load forwarding), so a load to a
  recently written block completes immediately.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

__all__ = ["StoreBuffer"]


class StoreBuffer:
    """Fixed-capacity FIFO of in-flight stores."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("store buffer capacity must be >= 1")
        self.capacity = capacity
        # entries: (completion_time, block)
        self._entries: Deque[Tuple[float, int]] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    def drain(self, now: float) -> None:
        """Retire every store whose memory transaction has completed by ``now``."""
        while self._entries and self._entries[0][0] <= now:
            self._entries.popleft()

    def forwards(self, block: int, now: float) -> bool:
        """True when a load to ``block`` can be forwarded from the buffer."""
        entries = self._entries
        while entries and entries[0][0] <= now:
            entries.popleft()
        for _completion, pending_block in entries:
            if pending_block == block:
                return True
        return False

    def push(self, now: float, block: int, completion_time: float) -> float:
        """Insert a store that will complete no earlier than ``completion_time``.

        Stores drain in order and one at a time, so the effective completion
        time of the new store is at least the completion time of the store in
        front of it -- this is what throttles bursts of stores to the memory
        system.  If the buffer is full, the core stalls until the oldest
        entry retires and the store enters the buffer then.  Returns the
        stall charged to the core, in ns (0.0 when the buffer had room).
        """
        entries = self._entries
        while entries and entries[0][0] <= now:
            entries.popleft()
        stall_ns = 0.0
        issue_time = now
        if len(entries) >= self.capacity:
            oldest_completion = entries[0][0]
            stall_ns = max(0.0, oldest_completion - now)
            issue_time = now + stall_ns
            while entries and entries[0][0] <= issue_time:
                entries.popleft()
        completion = max(completion_time, issue_time)
        if entries:
            # In-order, one-at-a-time drain (TSO): a store cannot complete
            # before the store ahead of it.
            completion = max(completion, entries[-1][0])
        entries.append((completion, block))
        return stall_ns

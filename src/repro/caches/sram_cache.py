"""Set-associative SRAM cache model used for the L1s and the LLC.

The model is functional (hit/miss, MSI state, dirty bits, LRU) with latency
left to the owning socket, which knows the configured tag/data latencies.
Hits and misses are counted in :class:`~repro.stats.counters.SimulationStats`
by the socket and the engines; the cache keeps no counters, and its
mutators change only line state.

A resident line is one int of state bits, stored in its set's dict under
the block number: :data:`MODIFIED` and :data:`DIRTY`.  A clean Shared line
is ``0``, so residency is tested with ``is None`` or ``in``, never by
truthiness.  Each set dict is kept in LRU order (Table II), least recently
used first: a hit or a re-insert moves the block to the end, and a write to
a resident line assigns to the existing key, which keeps its position.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

__all__ = ["SetAssociativeCache", "MODIFIED", "DIRTY", "VICTIM_SHIFT"]

#: The line holds the block in Modified state (else Shared).
MODIFIED = 1
#: The line's data differs from the next level's copy.
DIRTY = 2
#: An evicted line comes back as ``block << VICTIM_SHIFT | bits``.
VICTIM_SHIFT = 2


class SetAssociativeCache:
    """A set-associative, write-back, LRU cache of 64-byte blocks.

    Parameters
    ----------
    size_bytes:
        Total data capacity.
    associativity:
        Number of ways per set.
    block_size:
        Block size in bytes.
    name:
        Label used in statistics and error messages (e.g. ``"socket0.llc"``).
    """

    def __init__(
        self,
        size_bytes: int,
        associativity: int,
        *,
        block_size: int = 64,
        name: str = "cache",
    ) -> None:
        if size_bytes <= 0 or associativity <= 0 or block_size <= 0:
            raise ValueError("cache geometry parameters must be positive")
        total_blocks = size_bytes // block_size
        if total_blocks == 0:
            raise ValueError(f"{name}: size {size_bytes} smaller than one block")
        if total_blocks % associativity:
            raise ValueError(
                f"{name}: {total_blocks} blocks not divisible by associativity {associativity}"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.block_size = block_size
        self.associativity = associativity
        self.num_sets = total_blocks // associativity
        #: Set index -> {block: state bits}, each dict in LRU order.
        self._sets: Dict[int, Dict[int, int]] = {}

    # -- geometry -----------------------------------------------------------

    def set_index(self, block: int) -> int:
        """Return the set index of block number ``block``."""
        return block % self.num_sets

    # -- queries ------------------------------------------------------------

    def contains(self, block: int) -> bool:
        """True if ``block`` is resident (does not update recency)."""
        cache_set = self._sets.get(block % self.num_sets)
        return cache_set is not None and block in cache_set

    def peek(self, block: int) -> Optional[int]:
        """Return the state bits of ``block`` (None when absent), no side effects."""
        cache_set = self._sets.get(block % self.num_sets)
        if cache_set is None:
            return None
        return cache_set.get(block)

    def lookup(self, block: int) -> Optional[int]:
        """Access ``block``: move it to the MRU end if resident.

        Returns the line's state bits, or None on a miss.
        """
        cache_set = self._sets.get(block % self.num_sets)
        if cache_set is None:
            return None
        # Pop and re-add: an O(1) move to the MRU end.
        bits = cache_set.pop(block, None)
        if bits is not None:
            cache_set[block] = bits
        return bits

    def lines(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(block, state bits)`` over every resident line, each set
        in LRU order."""
        for cache_set in self._sets.values():
            yield from cache_set.items()

    # -- mutations ------------------------------------------------------------

    def insert(self, block: int, bits: int = 0) -> Optional[int]:
        """Insert ``block`` with state ``bits`` (allocating on fill).

        Returns the displaced line as ``victim_block << VICTIM_SHIFT |
        victim_bits``, or None.  A resident block takes the new Modified bit,
        keeps its dirty bit (ORed with the new one), moves to the MRU end and
        displaces nothing.
        """
        index = block % self.num_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = {}
        old = cache_set.pop(block, None)
        if old is not None:
            cache_set[block] = bits | (old & DIRTY)
            return None

        victim = None
        if len(cache_set) >= self.associativity:
            # The front of the LRU-ordered set is the least recently used.
            victim_block = next(iter(cache_set))
            victim = victim_block << VICTIM_SHIFT | cache_set.pop(victim_block)
        cache_set[block] = bits
        return victim

    def invalidate(self, block: int) -> Optional[int]:
        """Remove ``block`` and return its state bits (or ``None``)."""
        cache_set = self._sets.get(block % self.num_sets)
        if not cache_set:
            return None
        return cache_set.pop(block, None)

    def downgrade(self, block: int) -> Optional[int]:
        """Make ``block`` a clean Shared line; returns its previous bits."""
        cache_set = self._sets.get(block % self.num_sets)
        bits = cache_set.get(block) if cache_set is not None else None
        if bits is None:
            return None
        cache_set[block] = 0
        return bits

    def set_state(self, block: int, bits: int) -> None:
        """Overwrite the state bits of a resident block (KeyError when absent)."""
        cache_set = self._sets.get(block % self.num_sets)
        if cache_set is None or block not in cache_set:
            raise KeyError(f"{self.name}: block {block:#x} not resident")
        cache_set[block] = bits

    def mark_dirty(self, block: int) -> None:
        """Set the dirty bit of ``block`` if it is resident (recency unchanged)."""
        cache_set = self._sets.get(block % self.num_sets)
        if cache_set is not None and block in cache_set:
            cache_set[block] |= DIRTY

    def clear(self) -> None:
        """Drop all contents."""
        self._sets.clear()

    # -- state queries --------------------------------------------------------

    def resident_blocks(self) -> Iterator[int]:
        """Iterate over the block numbers of all resident lines."""
        for cache_set in self._sets.values():
            yield from cache_set.keys()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssociativeCache(name={self.name!r}, size={self.size_bytes}, "
            f"ways={self.associativity}, sets={self.num_sets})"
        )

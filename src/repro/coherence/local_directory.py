"""Local (intra-socket) directory.

Table II: "Local Directory -- 7-cycle, embedded in L2, full sharing vector".
Within a socket the LLC is inclusive of the per-core L1s, and the local
directory records which cores hold each LLC-resident block and which core (if
any) owns it in Modified state.  The socket uses it to invalidate peer L1
copies on writes and to source data from a peer L1 that holds the block
modified (avoiding an LLC data access).

An entry is one int, ``sharers_mask << owner_bits | owner_field``: bit ``c``
of the sharers mask is core ``c``'s L1, and the owner field holds the owner
core plus one (``0``: no owner).  Both widths follow from the socket's core
count.  This module is the only one that reads or writes the encoding.

The local directory settings are identical in all evaluated designs, so it is
part of the coherence substrate rather than of any particular protocol.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .directory import members

__all__ = ["LocalDirectory"]


class LocalDirectory:
    """Tracks L1 residency for every block held in the socket's LLC."""

    def __init__(self, cores_per_socket: int, *, latency_ns: float = 7 / 3.0,
                 name: str = "local_directory") -> None:
        self.latency_ns = latency_ns
        self.name = name
        #: The owner field holds 0 (no owner) .. cores_per_socket.
        self._owner_bits = cores_per_socket.bit_length()
        self._owner_mask = (1 << self._owner_bits) - 1
        self._entries: Dict[int, int] = {}

    # -- queries ------------------------------------------------------------

    def entries(self) -> Iterator[Tuple[int, List[int], Optional[int]]]:
        """Iterate ``(block, sharer cores, owner core or None)`` per entry."""
        shift = self._owner_bits
        owner_mask = self._owner_mask
        for block, entry in self._entries.items():
            owner = entry & owner_mask
            yield block, members(entry >> shift), owner - 1 if owner else None

    # -- updates --------------------------------------------------------------

    def record_fill(self, block: int, core: int, modified: bool = False,
                    evicted: Optional[int] = None) -> None:
        """Record that ``core`` now holds ``block`` in its L1.

        A Modified fill makes ``core`` the owner; a Shared fill by the owner
        clears the ownership.  ``evicted`` is the block the fill displaced
        from the core's L1, if any: the core no longer holds it.
        """
        entries = self._entries
        shift = self._owner_bits
        owner_mask = self._owner_mask
        field = core + 1
        entry = entries.get(block, 0) | 1 << core + shift
        if modified:
            entry = entry & ~owner_mask | field
        elif entry & owner_mask == field:
            entry &= ~owner_mask
        entries[block] = entry
        if evicted is not None:
            entry = entries.get(evicted)
            if entry is not None:
                entry &= ~(1 << core + shift)
                if entry & owner_mask == field:
                    entry &= ~owner_mask
                if entry >> shift:
                    entries[evicted] = entry
                else:
                    del entries[evicted]

    def record_write(self, block: int, core: int) -> List[int]:
        """Record a write by ``core``; returns the peer cores to invalidate."""
        shift = self._owner_bits
        peers = members(self._entries.get(block, 0) >> shift & ~(1 << core))
        self._entries[block] = 1 << core + shift | core + 1
        return peers

    def intervene(self, block: int, core: int) -> Optional[int]:
        """Source ``block`` for ``core`` from a peer L1 that owns it Modified.

        Returns the owner and clears the ownership (the owner keeps a Shared
        copy); returns None when no peer of ``core`` owns the block.
        """
        entries = self._entries
        entry = entries.get(block, 0)
        owner = entry & self._owner_mask
        if not owner or owner == core + 1:
            return None
        entries[block] = entry & ~self._owner_mask
        return owner - 1

    def downgrade(self, block: int) -> List[int]:
        """Clear the owner of ``block``; returns the cores whose L1s hold it."""
        entries = self._entries
        entry = entries.get(block)
        if entry is None:
            return []
        entries[block] = entry & ~self._owner_mask
        return members(entry >> self._owner_bits)

    def invalidate_block(self, block: int) -> List[int]:
        """Drop all L1 residency info for ``block``; returns the cores affected."""
        entry = self._entries.pop(block, None)
        if entry is None:
            return []
        return members(entry >> self._owner_bits)

    def __contains__(self, block: int) -> bool:
        return block in self._entries

    def __len__(self) -> int:
        return len(self._entries)

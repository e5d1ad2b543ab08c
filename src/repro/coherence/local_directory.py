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

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from ..caches.sram_cache import DIRTY, MODIFIED, VICTIM_SHIFT
from .directory import members

if TYPE_CHECKING:  # pragma: no cover
    from ..caches.sram_cache import SetAssociativeCache

__all__ = ["LocalDirectory"]

#: SRAM line state bits of a store's fill: Modified and dirty.
_WRITTEN = MODIFIED | DIRTY


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
    #
    # Each update takes the socket's per-core L1s (and the LLC where it
    # changes it) and makes the L1 change together with the entry's: the
    # miss path makes one call into this class per fill or invalidation, and
    # the encoding stays in this module.  ``insert`` is looked up on the L1
    # at each call, so a wrapper installed on the instance (perfbench's
    # ``caches.sram_insert`` span) sees every fill.

    def fill(self, l1s: Sequence["SetAssociativeCache"], llc: "SetAssociativeCache",
             block: int, core: int, modified: bool = False,
             llc_victim: Optional[int] = None) -> int:
        """Fill ``block`` into ``core``'s L1 and record that ``core`` holds it.

        A Modified fill makes ``core`` the owner; a Shared fill by the owner
        clears the ownership.  The block the fill displaces from the L1 is
        no longer held by ``core``, and a dirty one is written back into the
        (inclusive) LLC.  ``llc_victim`` is the block the LLC displaced to
        make room, if any: its L1 copies go first (:meth:`evict`), and their
        state bits ORed together are returned (0 when no L1 held it).
        """
        entries = self._entries
        dropped = 0
        if llc_victim is not None and llc_victim in entries:
            dropped = self.evict(l1s, llc_victim)
        victim = l1s[core].insert(block, _WRITTEN if modified else 0)
        shift = self._owner_bits
        owner_mask = self._owner_mask
        field = core + 1
        entry = entries.get(block, 0) | 1 << core + shift
        if modified:
            entry = entry & ~owner_mask | field
        elif entry & owner_mask == field:
            entry &= ~owner_mask
        entries[block] = entry
        if victim is None:
            return dropped
        evicted = victim >> VICTIM_SHIFT
        entry = entries.get(evicted)
        if entry is not None:
            entry &= ~(1 << core + shift)
            if entry & owner_mask == field:
                entry &= ~owner_mask
            if entry >> shift:
                entries[evicted] = entry
            else:
                del entries[evicted]
        if victim & DIRTY:
            llc.mark_dirty(evicted)
        return dropped

    def write(self, l1s: Sequence["SetAssociativeCache"], llc: "SetAssociativeCache",
              block: int, core: int) -> None:
        """Give ``core`` the only L1 copy of LLC-resident ``block``, Modified:
        peer copies are invalidated, and the LLC line becomes Modified and
        dirty."""
        shift = self._owner_bits
        peers = self._entries.get(block, 0) >> shift & ~(1 << core)
        while peers:
            low = peers & -peers
            l1s[low.bit_length() - 1].invalidate(block)
            peers ^= low
        self._entries[block] = 1 << core + shift | core + 1
        self.fill(l1s, llc, block, core, True)
        llc.set_state(block, _WRITTEN)

    def intervene(self, l1s: Sequence["SetAssociativeCache"], block: int, core: int) -> bool:
        """Source ``block`` for ``core`` from a peer L1 that owns it Modified.

        The owner keeps a Shared copy with its dirty bit, and the ownership
        is cleared.  Returns False, changing nothing, when no peer of
        ``core`` owns the block.
        """
        entries = self._entries
        entry = entries.get(block, 0)
        owner = entry & self._owner_mask
        if not owner or owner == core + 1:
            return False
        entries[block] = entry & ~self._owner_mask
        owner_l1 = l1s[owner - 1]
        line = owner_l1.peek(block)
        if line is not None:
            owner_l1.set_state(block, line & DIRTY)
        return True

    def downgrade(self, block: int) -> List[int]:
        """Clear the owner of ``block``; returns the cores whose L1s hold it."""
        entries = self._entries
        entry = entries.get(block)
        if entry is None:
            return []
        entries[block] = entry & ~self._owner_mask
        return members(entry >> self._owner_bits)

    def evict(self, l1s: Sequence["SetAssociativeCache"], block: int) -> int:
        """Invalidate every L1 copy of ``block`` and drop its entry; returns
        the dropped lines' state bits ORed together (0 when none)."""
        entry = self._entries.pop(block, None)
        if entry is None:
            return 0
        bits = 0
        sharers = entry >> self._owner_bits
        while sharers:
            low = sharers & -sharers
            line = l1s[low.bit_length() - 1].invalidate(block)
            if line is not None:
                bits |= line
            sharers ^= low
        return bits

    def __contains__(self, block: int) -> bool:
        return block in self._entries

    def __len__(self) -> int:
        return len(self._entries)

"""Global directory slices and the directory storage-cost model.

Each socket hosts a *slice* of the global directory that tracks blocks whose
home memory lives on that socket (Fig. 1).  An entry carries the MSI state of
section IV-C, the owner socket (Modified) and a socket-grain sharing vector
(Shared).  The same class serves every evaluated design; what differs between
designs is *which* blocks get entries:

* baseline / C3D: only blocks cached by an LLC (or higher) are tracked;
* full-dir / c3d-full-dir: blocks resident in DRAM caches are tracked too.

An entry is one int, ``sharers_mask << SHARER_SHIFT | state``: bit ``s`` of
the sharers mask is socket ``s``, and the state is :data:`DIR_SHARED` or
:data:`DIR_MODIFIED` (an untracked block, Invalid, has no entry).  The owner
of a Modified entry is its only sharer, so it needs no field of its own.
Protocols compare the ints directly; :meth:`GlobalDirectory.decode` turns
one into a :class:`DecodedEntry` for tests and debugging, and
:meth:`GlobalDirectory.modified_entries` lists the Modified ones for the
invariant checks.

The module also provides :class:`DirectoryCostModel`, which reproduces the
storage arithmetic of section III-B (a 2x-provisioned sparse directory for a
256 MB DRAM cache costs 32 MB per socket; 128 MB for a 1 GB cache).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Tuple

__all__ = [
    "DirectoryState",
    "DecodedEntry",
    "GlobalDirectory",
    "DirectoryCostModel",
    "DIR_SHARED",
    "DIR_MODIFIED",
    "SHARER_SHIFT",
    "members",
    "owner_of",
]

#: State bits of an entry.
DIR_SHARED = 1
DIR_MODIFIED = 2
#: Socket ``s`` is bit ``s + SHARER_SHIFT`` of an entry.
SHARER_SHIFT = 2


class DirectoryState(enum.Enum):
    """Stable states of the global directory (Fig. 5)."""

    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"


#: Entry state bits -> state.
_STATES = (DirectoryState.INVALID, DirectoryState.SHARED, DirectoryState.MODIFIED)


def members(mask: int) -> List[int]:
    """The indices of the bits set in ``mask``, ascending."""
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return indices


def owner_of(entry: int) -> int:
    """The owner socket of a Modified entry: its only sharer."""
    return entry.bit_length() - 1 - SHARER_SHIFT


def _mask(sockets: Iterable[int]) -> int:
    mask = 0
    for socket in sockets:
        mask |= 1 << socket
    return mask


class DecodedEntry(NamedTuple):
    """A read-only view of one entry, built on demand by :meth:`GlobalDirectory.decode`."""

    state: DirectoryState
    owner: Optional[int]
    sharers: FrozenSet[int]


class GlobalDirectory:
    """A directory slice for the blocks homed at one socket.

    The slice is functionally unbounded (entries are allocated on demand) but
    records the peak entry count so the experiments can report how much
    storage each design would actually need; the sparse-capacity arithmetic
    itself lives in :class:`DirectoryCostModel`.
    """

    def __init__(self, home_socket: int, *, latency_ns: float = 10 / 3.0,
                 name: Optional[str] = None) -> None:
        self.home_socket = home_socket
        self.latency_ns = latency_ns
        self.name = name or f"directory[{home_socket}]"
        #: Block -> entry int, in allocation order.
        self._entries: Dict[int, int] = {}
        #: The slice's only counter: experiments/directory_cost.py reads it.
        self.peak_entries = 0

    # -- lookup ---------------------------------------------------------------

    def lookup(self, block: int) -> Optional[int]:
        """Return the entry int for ``block`` (None when untracked)."""
        return self._entries.get(block)

    def decode(self, block: int) -> Optional[DecodedEntry]:
        """Decode the entry for ``block`` (None when untracked)."""
        entry = self._entries.get(block)
        return None if entry is None else _decode(entry)

    # -- state changes -------------------------------------------------------

    def set_modified(self, block: int, owner: int) -> None:
        """Transition ``block`` to Modified with the given owner socket."""
        entries = self._entries
        entries[block] = 1 << owner + SHARER_SHIFT | DIR_MODIFIED
        if len(entries) > self.peak_entries:
            self.peak_entries = len(entries)

    def set_shared(self, block: int, sharers: Iterable[int]) -> None:
        """Transition ``block`` to Shared with the given sharing vector."""
        mask = _mask(sharers)
        if not mask:
            raise ValueError("shared state requires at least one sharer")
        entries = self._entries
        entries[block] = mask << SHARER_SHIFT | DIR_SHARED
        if len(entries) > self.peak_entries:
            self.peak_entries = len(entries)

    def add_sharer(self, block: int, socket: int) -> None:
        """Add ``socket`` to the sharing vector (allocating a Shared entry)."""
        entries = self._entries
        old = entries.get(block)
        if old is None:
            entries[block] = 1 << socket + SHARER_SHIFT | DIR_SHARED
            if len(entries) > self.peak_entries:
                self.peak_entries = len(entries)
        elif old & DIR_MODIFIED:
            raise ValueError(f"add_sharer on Modified block {block:#x}")
        else:
            entries[block] = old | 1 << socket + SHARER_SHIFT

    def add_shared_entries(self, blocks: Iterable[int], sharers: Iterable[int]) -> None:
        """``add_sharer(block, socket)`` for each block of ``blocks`` and socket of ``sharers``.

        Leaves the same entries (new ones in ``blocks`` order) and
        ``peak_entries`` as those calls, with one dict update for all the
        new entries.
        """
        sharers = tuple(sharers)
        mask = _mask(sharers) << SHARER_SHIFT
        entries = self._entries
        added = {}
        for block in blocks:
            if block in entries:
                for socket in sharers:
                    self.add_sharer(block, socket)
            else:
                added[block] = mask | DIR_SHARED
        if not added:
            return
        entries.update(added)
        if len(entries) > self.peak_entries:
            self.peak_entries = len(entries)

    def remove_sharer(self, block: int, socket: int) -> None:
        """Drop ``socket`` from the sharing vector; deallocate when empty.

        Removing the owner of a Modified entry empties it.
        """
        entries = self._entries
        old = entries.get(block)
        if old is None:
            return
        entry = old & ~(1 << socket + SHARER_SHIFT)
        if entry >> SHARER_SHIFT:
            entries[block] = entry
        else:
            del entries[block]

    def invalidate(self, block: int) -> None:
        """Remove the entry for ``block`` (transition to Invalid / untracked)."""
        self._entries.pop(block, None)

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Iterator[Tuple[int, DecodedEntry]]:
        """Iterate ``(block, decoded entry)`` in allocation order."""
        for block, entry in self._entries.items():
            yield block, _decode(entry)

    def modified_entries(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(block, owner socket)`` over the Modified entries, in
        allocation order, decoding nothing else."""
        for block, entry in self._entries.items():
            if entry & DIR_MODIFIED:
                yield block, owner_of(entry)


def _decode(entry: int) -> DecodedEntry:
    sharers = frozenset(members(entry >> SHARER_SHIFT))
    owner = owner_of(entry) if entry & DIR_MODIFIED else None
    return DecodedEntry(_STATES[entry & 3], owner, sharers)


@dataclass(frozen=True)
class DirectoryCostModel:
    """Sparse-directory storage arithmetic from section III-B.

    A sparse directory provisioned at ``provisioning`` times the number of
    blocks in the tracked cache, with each entry holding a tag plus a sharing
    vector of one bit per socket and a handful of state bits.

    >>> model = DirectoryCostModel(num_sockets=4)
    >>> round(model.storage_bytes(256 * 2**20) / 2**20)  # 256 MB cache, 2x sparse
    32
    """

    num_sockets: int = 4
    block_size: int = 64
    provisioning: float = 2.0
    tag_bits: int = 26
    state_bits: int = 2

    def entry_bits(self) -> int:
        """Size of one directory entry in bits."""
        return self.tag_bits + self.state_bits + self.num_sockets

    def entries_for_cache(self, cache_bytes: int) -> int:
        """Number of entries needed to track a cache of ``cache_bytes``."""
        blocks = cache_bytes // self.block_size
        return int(math.ceil(blocks * self.provisioning))

    def storage_bytes(self, cache_bytes: int) -> float:
        """Directory storage (bytes) required to track ``cache_bytes`` of cache."""
        return self.entries_for_cache(cache_bytes) * self.entry_bits() / 8.0

    def storage_megabytes(self, cache_bytes: int) -> float:
        return self.storage_bytes(cache_bytes) / 2**20

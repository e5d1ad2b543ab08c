"""Global directory slices and the directory storage-cost model.

Each socket hosts a *slice* of the global directory that tracks blocks whose
home memory lives on that socket (Fig. 1).  An entry carries the MSI state of
section IV-C, the owner socket (Modified) and a socket-grain sharing vector
(Shared).  The same class serves every evaluated design; what differs between
designs is *which* blocks get entries:

* baseline / C3D: only blocks cached by an LLC (or higher) are tracked;
* full-dir / c3d-full-dir: blocks resident in DRAM caches are tracked too.

The module also provides :class:`DirectoryCostModel`, which reproduces the
storage arithmetic of section III-B (a 2x-provisioned sparse directory for a
256 MB DRAM cache costs 32 MB per socket; 128 MB for a 1 GB cache).

An entry's sharer set is never mutated in place: a membership change binds a
new set to the entry.  That is what lets many entries share one set object,
as the DRAM-cache prewarm does (:meth:`GlobalDirectory.add_shared_entries`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, FrozenSet, Iterable, Iterator, Optional, Set

__all__ = ["DirectoryState", "DirectoryEntry", "GlobalDirectory", "DirectoryCostModel"]


class DirectoryState(enum.Enum):
    """Stable states of the global directory (Fig. 5)."""

    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"

    __hash__ = object.__hash__  # identity hashing, C-level


#: Precomputed transition labels, so recording a transition does not format
#: a string on every directory state change.
_TRANSITION_KEYS = {}


@dataclass(slots=True)
class DirectoryEntry:
    """One tracked block.

    ``sharers`` may be shared with other entries, so it is replaced, never
    mutated in place.
    """

    block: int
    state: DirectoryState = DirectoryState.INVALID
    owner: Optional[int] = None
    sharers: AbstractSet[int] = field(default_factory=set)

    def copy(self) -> "DirectoryEntry":
        return DirectoryEntry(self.block, self.state, self.owner, set(self.sharers))


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
        self._entries: Dict[int, DirectoryEntry] = {}

        self.lookups = 0
        self.allocations = 0
        self.deallocations = 0
        self.transitions: Dict[str, int] = {}
        self.peak_entries = 0

    # -- lookup / allocation ----------------------------------------------

    def lookup(self, block: int) -> Optional[DirectoryEntry]:
        """Return the entry for ``block`` (None when untracked); counts a lookup."""
        self.lookups += 1
        return self._entries.get(block)

    def peek(self, block: int) -> Optional[DirectoryEntry]:
        """Return the entry without counting a lookup (for assertions/tests)."""
        return self._entries.get(block)

    def state_of(self, block: int) -> DirectoryState:
        """Return the stable state of ``block`` (INVALID when untracked)."""
        entry = self._entries.get(block)
        return entry.state if entry is not None else DirectoryState.INVALID

    def _get_or_allocate(self, block: int) -> DirectoryEntry:
        entry = self._entries.get(block)
        if entry is None:
            entry = DirectoryEntry(block=block)
            self._entries[block] = entry
            self.allocations += 1
            if len(self._entries) > self.peak_entries:
                self.peak_entries = len(self._entries)
        return entry

    def _record_transition(self, old: DirectoryState, new: DirectoryState) -> None:
        key = _TRANSITION_KEYS[(old, new)]
        self.transitions[key] = self.transitions.get(key, 0) + 1

    # -- state changes -------------------------------------------------------

    def set_modified(self, block: int, owner: int) -> DirectoryEntry:
        """Transition ``block`` to Modified with the given owner socket."""
        entries = self._entries
        entry = entries.get(block)
        if entry is None:
            entry = entries[block] = DirectoryEntry(block=block)
            self.allocations += 1
            if len(entries) > self.peak_entries:
                self.peak_entries = len(entries)
        key = _TRANSITION_KEYS[(entry.state, DirectoryState.MODIFIED)]
        self.transitions[key] = self.transitions.get(key, 0) + 1
        entry.state = DirectoryState.MODIFIED
        entry.owner = owner
        entry.sharers = {owner}
        return entry

    def set_shared(self, block: int, sharers: Set[int]) -> DirectoryEntry:
        """Transition ``block`` to Shared with the given sharing vector."""
        if not sharers:
            raise ValueError("shared state requires at least one sharer")
        entry = self._get_or_allocate(block)
        self._record_transition(entry.state, DirectoryState.SHARED)
        entry.state = DirectoryState.SHARED
        entry.owner = None
        entry.sharers = set(sharers)
        return entry

    def add_sharer(self, block: int, socket: int) -> DirectoryEntry:
        """Add ``socket`` to the sharing vector (allocating a Shared entry)."""
        entries = self._entries
        entry = entries.get(block)
        if entry is None:
            entry = entries[block] = DirectoryEntry(block=block)
            self.allocations += 1
            if len(entries) > self.peak_entries:
                self.peak_entries = len(entries)
        if entry.state is DirectoryState.MODIFIED:
            raise ValueError(f"add_sharer on Modified block {block:#x}")
        if entry.state is DirectoryState.INVALID:
            key = _TRANSITION_KEYS[(DirectoryState.INVALID, DirectoryState.SHARED)]
            self.transitions[key] = self.transitions.get(key, 0) + 1
            entry.state = DirectoryState.SHARED
        sharers = entry.sharers
        if socket not in sharers:
            entry.sharers = sharers | {socket}
        return entry

    def add_shared_entries(self, blocks: Iterable[int], sharers: FrozenSet[int]) -> None:
        """``add_sharer(block, socket)`` for each block of ``blocks`` and socket of ``sharers``.

        Leaves the same entries (new ones in ``blocks`` order), sharers,
        ``allocations``, ``peak_entries`` and transition counts as those
        calls, but every entry it allocates holds the one ``sharers`` object.
        An already tracked block gains the sockets through ``add_sharer``.
        """
        entries = self._entries
        shared = DirectoryState.SHARED
        added = {}
        for block in blocks:
            if block in entries:
                for socket in sharers:
                    self.add_sharer(block, socket)
            else:
                added[block] = DirectoryEntry(block, shared, None, sharers)
        if not added:
            return
        entries.update(added)
        self.allocations += len(added)
        if len(entries) > self.peak_entries:
            self.peak_entries = len(entries)
        key = _TRANSITION_KEYS[(DirectoryState.INVALID, shared)]
        self.transitions[key] = self.transitions.get(key, 0) + len(added)

    def remove_sharer(self, block: int, socket: int) -> None:
        """Drop ``socket`` from the sharing vector; deallocate when empty."""
        entry = self._entries.get(block)
        if entry is None:
            return
        sharers = entry.sharers
        if socket in sharers:
            entry.sharers = sharers - {socket}
        if entry.owner == socket:
            entry.owner = None
        if not entry.sharers:
            self.invalidate(block)

    def invalidate(self, block: int) -> None:
        """Remove the entry for ``block`` (transition to Invalid / untracked)."""
        entry = self._entries.pop(block, None)
        if entry is not None:
            self._record_transition(entry.state, DirectoryState.INVALID)
            self.deallocations += 1

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Iterator[DirectoryEntry]:
        return iter(self._entries.values())

    def tracked_blocks(self) -> Set[int]:
        return set(self._entries)


_TRANSITION_KEYS.update(
    {(a, b): f"{a.value}->{b.value}" for a in DirectoryState for b in DirectoryState}
)


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

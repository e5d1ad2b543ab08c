"""TLB/page-table based private-shared classification (section IV-D).

C3D broadcasts invalidations on writes to blocks the directory does not
track.  For thread-private data those broadcasts are pure waste, so the paper
adds a simple OS/TLB mechanism: each page-table entry carries the owning
thread id and a private/shared bit.  The first touch marks the page private
to the toucher; a later touch by a *different* thread re-classifies the page
as shared (or, if the mismatch is due to thread migration, merely re-homes
it).  A GetX for a block in a page still classified private can skip the
broadcast because no other thread can have cached it.

The classifier wraps the shared :class:`~repro.memory.page_table.PageTable`
and is consulted by :class:`~repro.core.c3d_protocol.C3DProtocol` when the
``broadcast_filter`` option is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..memory.address import DEFAULT_LAYOUT, AddressLayout
from ..memory.page_table import PageClassification, PageTable

__all__ = ["PrivateSharedClassifier", "ClassifierStats"]


@dataclass
class ClassifierStats:
    """Counters for the broadcast-filtering study of section VI-C."""

    accesses: int = 0
    tlb_misses: int = 0
    reclassifications: int = 0
    migrations: int = 0
    private_write_checks: int = 0
    shared_write_checks: int = 0


class PrivateSharedClassifier:
    """Classifies pages as thread-private or shared, driven by the access stream.

    Parameters
    ----------
    page_table:
        The page table extended with owner/classification fields.  A fresh
        one is created when not supplied.
    layout:
        Address layout used to map addresses/blocks to pages.
    track_migrations:
        When True, a thread-id mismatch where the previous owner thread has
        been observed to migrate is treated as a migration (the page stays
        private); the simple reproduction treats every mismatch as sharing,
        matching the conservative behaviour described in the paper for
        multi-threaded workloads.
    """

    def __init__(
        self,
        page_table: Optional[PageTable] = None,
        *,
        layout: Optional[AddressLayout] = None,
        track_migrations: bool = False,
    ) -> None:
        self.layout = layout or DEFAULT_LAYOUT
        self.page_table = page_table if page_table is not None else PageTable(layout=self.layout)
        self.track_migrations = track_migrations
        self.stats = ClassifierStats()
        # thread id -> socket observed, to distinguish migration from sharing
        self._last_core_of_thread: Dict[int, int] = {}

    # -- driving the classifier ------------------------------------------

    def record_access(self, thread_id: int, addr: int, *, core_id: Optional[int] = None) -> None:
        """Observe one memory access (read or write) by ``thread_id``.

        This is the OS action of section IV-D.  The simulator models no
        address translation, so every access drives it.
        """
        self.stats.accesses += 1
        page = self.layout.page_of(addr)
        entry = self.page_table.lookup(page)
        migrated = False
        if (
            self.track_migrations
            and entry is not None
            and core_id is not None
            and entry.owner_thread == thread_id
        ):
            self._last_core_of_thread[thread_id] = core_id
        if entry is None or entry.owner_thread is None:  # first touch
            self.stats.tlb_misses += 1
        _entry, reclassified = self.page_table.touch(page, thread_id, migrated=migrated)
        if reclassified:
            self.stats.reclassifications += 1

    def record_block_access(self, thread_id: int, block: int) -> None:
        """Convenience wrapper taking a block number instead of a byte address."""
        self.record_access(thread_id, block * self.layout.block_size)

    # -- queries used by the C3D protocol -----------------------------------

    def classification_of_block(self, block: int) -> PageClassification:
        """Current classification of the page containing ``block``."""
        page = self.layout.page_of_block(block)
        return self.page_table.classify(page)

    def write_is_private(self, thread_id: int, block: int) -> bool:
        """True when a write by ``thread_id`` to ``block`` may skip the broadcast.

        The write may skip the broadcast only when the page is classified
        private *and* owned by the writing thread (a write by a non-owner is
        precisely the event that triggers re-classification, so it must not
        skip).
        """
        page = self.layout.page_of_block(block)
        entry = self.page_table.lookup(page)
        if entry is None or not entry.is_private or entry.owner_thread != thread_id:
            self.stats.shared_write_checks += 1
            return False
        self.stats.private_write_checks += 1
        return True

    # -- reporting ------------------------------------------------------------

    def private_page_fraction(self) -> float:
        """Fraction of touched pages currently classified private."""
        total = sum(1 for entry in self.page_table if entry.owner_thread is not None)
        if not total:
            return 0.0
        return self.page_table.private_pages() / total

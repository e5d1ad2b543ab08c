"""Page table with the private/shared classification fields of section IV-D.

The C3D broadcast-filtering optimisation extends each page-table entry with
the owner thread's id and a classification bit.  The OS handles the first
touch of a page by marking it *private* to the toucher; a later access by a
different thread re-classifies it as *shared*.  The classifier built on top
of this table lives in :mod:`repro.core.page_classifier`; this module
provides the underlying table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Tuple

__all__ = ["PageClassification", "PageTableEntry", "PageTable"]


class PageClassification(enum.Enum):
    """Classification of a page for broadcast filtering (section IV-D)."""

    PRIVATE = "private"
    SHARED = "shared"


@dataclass
class PageTableEntry:
    """Per-page metadata.

    Attributes
    ----------
    page:
        Page number.
    owner_thread:
        Id of the thread that currently owns the page (valid while the page
        is classified private).  ``None`` exactly while no thread has
        touched the page, which happens only to pages marked shared before
        their first touch; that touch records the toucher.
    classification:
        Current private/shared classification.
    """

    page: int
    owner_thread: Optional[int]
    classification: PageClassification = PageClassification.PRIVATE

    @property
    def is_private(self) -> bool:
        return self.classification is PageClassification.PRIVATE


class PageTable:
    """Simple flat page table keyed by page number."""

    def __init__(self) -> None:
        self._entries: Dict[int, PageTableEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[PageTableEntry]:
        return iter(self._entries.values())

    def lookup(self, page: int) -> Optional[PageTableEntry]:
        """Return the entry for ``page`` or ``None`` if never touched nor marked shared."""
        return self._entries.get(page)

    def touch(self, page: int, thread_id: int) -> Tuple[PageTableEntry, bool]:
        """Record an access to ``page`` by ``thread_id``.

        Implements the OS actions of section IV-D:

        * first touch: create a PRIVATE entry owned by the toucher;
        * a touch by a thread other than the owner: re-classify as SHARED.
          The reproduction models no thread migration, so every owner
          mismatch is sharing, the paper's conservative choice for
          multi-threaded workloads.

        Returns ``(entry, reclassified)`` where ``reclassified`` is True when
        this touch performed the private-to-shared transition.
        """
        entry = self._entries.get(page)
        if entry is None:
            entry = PageTableEntry(page=page, owner_thread=thread_id)
            self._entries[page] = entry
            return entry, False

        if entry.classification is PageClassification.SHARED:
            if entry.owner_thread is None:  # first touch of a page marked shared
                entry.owner_thread = thread_id
            return entry, False

        if entry.owner_thread == thread_id:
            return entry, False

        entry.classification = PageClassification.SHARED
        return entry, True

    def mark_shared(self, pages: Iterable[int]) -> None:
        """Classify every page of ``pages`` as SHARED, touched or not.

        For pages whose data other sockets may already hold without any
        thread having touched them, such as DRAM-cache prewarm content: a
        first touch must not classify those private.  An untouched page
        gets an entry without an owner.
        """
        entries = self._entries
        shared = PageClassification.SHARED
        for page in pages:
            entry = entries.get(page)
            if entry is None:
                entries[page] = PageTableEntry(page, None, shared)
            else:
                entry.classification = shared

    def private_pages(self) -> int:
        """Number of pages currently classified private."""
        return sum(1 for entry in self._entries.values() if entry.is_private)

    def shared_pages(self) -> int:
        """Number of pages currently classified shared."""
        return len(self._entries) - self.private_pages()

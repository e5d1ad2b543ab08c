"""TLB/page-table based private-shared classification (section IV-D).

C3D broadcasts invalidations on writes to blocks the directory does not
track.  For thread-private data those broadcasts are pure waste, so the paper
adds a simple OS/TLB mechanism: each page-table entry carries the owning
thread id and a private/shared bit.  The first touch marks the page private
to the toucher; a later touch by a *different* thread re-classifies the page
as shared.  The reproduction models no thread migration, so a mismatch is
always sharing, never a re-homing.  A GetX for a block in a page still
classified private can skip the broadcast because no other thread can have
cached it.

The classifier wraps its own :class:`~repro.memory.page_table.PageTable`
and is consulted by :class:`~repro.core.c3d_protocol.C3DProtocol` when the
``broadcast_filter`` option is enabled.
"""

from __future__ import annotations

from typing import Optional

from ..memory.address import DEFAULT_LAYOUT, AddressLayout
from ..memory.page_table import PageTable

__all__ = ["PrivateSharedClassifier"]


class PrivateSharedClassifier:
    """Classifies pages as thread-private or shared, driven by the access stream.

    Parameters
    ----------
    layout:
        Address layout used to map addresses/blocks to pages.
    """

    def __init__(self, *, layout: Optional[AddressLayout] = None) -> None:
        self.layout = layout or DEFAULT_LAYOUT
        #: The page table extended with owner/classification fields.
        self.page_table = PageTable()

    # -- driving the classifier ------------------------------------------

    def record_access(self, thread_id: int, addr: int) -> None:
        """Observe one memory access (read or write) by ``thread_id``.

        This is the OS action of section IV-D.  The simulator models no
        address translation, so every access drives it.
        """
        self.page_table.touch(self.layout.page_of(addr), thread_id)

    # -- queries used by the C3D protocol -----------------------------------

    def write_is_private(self, thread_id: int, block: int) -> bool:
        """True when a write by ``thread_id`` to ``block`` may skip the broadcast.

        The write may skip the broadcast only when the page is classified
        private *and* owned by the writing thread (a write by a non-owner is
        precisely the event that triggers re-classification, so it must not
        skip).  A page with no entry counts as shared: the protocol then
        broadcasts where it did not strictly need to, which is always
        correct.
        """
        page = self.layout.page_of_block(block)
        entry = self.page_table.lookup(page)
        return entry is not None and entry.is_private and entry.owner_thread == thread_id

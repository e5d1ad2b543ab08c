"""Tests for the page table with private/shared classification fields."""

from repro.memory.page_table import PageClassification, PageTable


def test_first_touch_creates_private_entry():
    table = PageTable()
    entry, reclassified = table.touch(5, thread_id=3)
    assert not reclassified
    assert entry.owner_thread == 3
    assert entry.classification is PageClassification.PRIVATE
    assert entry.is_private


def test_same_thread_touch_keeps_private():
    table = PageTable()
    table.touch(5, thread_id=3)
    entry, reclassified = table.touch(5, thread_id=3)
    assert not reclassified
    assert entry.is_private


def test_other_thread_touch_reclassifies_as_shared():
    table = PageTable()
    table.touch(5, thread_id=3)
    entry, reclassified = table.touch(5, thread_id=4)
    assert reclassified
    assert entry.classification is PageClassification.SHARED


def test_shared_page_stays_shared():
    table = PageTable()
    table.touch(5, thread_id=3)
    table.touch(5, thread_id=4)
    entry, reclassified = table.touch(5, thread_id=3)
    assert not reclassified
    assert entry.classification is PageClassification.SHARED


def test_private_and_shared_counts():
    table = PageTable()
    table.touch(1, thread_id=0)
    table.touch(2, thread_id=0)
    table.touch(2, thread_id=1)
    assert len(table) == 2
    assert table.private_pages() == 1
    assert table.shared_pages() == 1



"""Tests for the TLB/page-table private-shared classifier (section IV-D)."""

from repro.core.page_classifier import PrivateSharedClassifier
from repro.memory.page_table import PageClassification

from ..conftest import block_homed_at, tiny_system, write


PAGE_BYTES = 4096


def test_first_access_marks_page_private():
    classifier = PrivateSharedClassifier()
    classifier.record_access(thread_id=1, addr=0)
    assert classifier.page_table.lookup(0).classification is PageClassification.PRIVATE
    assert classifier.write_is_private(thread_id=1, block=0)


def test_unknown_page_is_treated_as_shared():
    classifier = PrivateSharedClassifier()
    assert not classifier.write_is_private(thread_id=0, block=999)


def test_access_by_second_thread_reclassifies():
    classifier = PrivateSharedClassifier()
    classifier.record_access(thread_id=1, addr=0)
    classifier.record_access(thread_id=2, addr=64)
    assert classifier.page_table.lookup(0).classification is PageClassification.SHARED
    assert not classifier.write_is_private(thread_id=1, block=0)


def test_write_by_non_owner_is_not_private_even_before_reclassification():
    classifier = PrivateSharedClassifier()
    classifier.record_access(thread_id=1, addr=0)
    assert not classifier.write_is_private(thread_id=2, block=0)


def test_private_page_fraction():
    """Half the touched pages stay private: the second page is shared."""
    classifier = PrivateSharedClassifier()
    classifier.record_access(thread_id=0, addr=0)
    classifier.record_access(thread_id=0, addr=PAGE_BYTES)
    classifier.record_access(thread_id=1, addr=PAGE_BYTES)
    assert len(classifier.page_table) == 2
    assert classifier.page_table.private_pages() == 1
    assert classifier.write_is_private(thread_id=0, block=0)
    assert not classifier.write_is_private(thread_id=0, block=PAGE_BYTES // 64)


def test_c3d_with_filter_elides_broadcasts_for_private_pages():
    system = tiny_system("c3d", broadcast_filter=True)
    assert system.page_classifier is not None
    block = block_homed_at(system, home=0)
    # Thread 0 on socket 0 owns the page privately.
    system.page_classifier.record_access(thread_id=0, addr=block * 64)
    broadcasts_before = system.stats.broadcasts
    write(system, socket_id=0, block=block, core=0)
    assert system.stats.broadcasts == broadcasts_before
    assert system.stats.broadcasts_elided == 1


def test_c3d_with_filter_still_broadcasts_for_shared_pages():
    system = tiny_system("c3d", broadcast_filter=True)
    block = block_homed_at(system, home=0)
    system.page_classifier.record_access(thread_id=0, addr=block * 64)
    system.page_classifier.record_access(thread_id=3, addr=block * 64)
    write(system, socket_id=0, block=block, core=0)
    assert system.stats.broadcasts == 1
    assert system.stats.broadcasts_elided == 0

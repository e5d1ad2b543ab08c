"""Tests for the intra-socket (local) directory."""

import pytest

from repro.caches.sram_cache import DIRTY, MODIFIED, SetAssociativeCache
from repro.coherence.local_directory import LocalDirectory


def sharers_of(ld, block):
    """The cores ``entries()`` lists as holding ``block`` (empty if none)."""
    return next((set(cores) for b, cores, _owner in ld.entries() if b == block), set())


def owner_of(ld, block):
    """The owner core ``entries()`` lists for ``block`` (None if none)."""
    return next((owner for b, _cores, owner in ld.entries() if b == block), None)


def socket_caches(cores, *, l1_blocks=8):
    """Per-core fully associative L1s of ``l1_blocks`` lines, and an LLC."""
    l1s = [SetAssociativeCache(64 * l1_blocks, l1_blocks, name=f"l1[{core}]")
           for core in range(cores)]
    return l1s, SetAssociativeCache(64 * 64, 64, name="llc")


def test_record_fill_and_sharers():
    ld = LocalDirectory(4)
    l1s, llc = socket_caches(4)
    ld.fill(l1s, llc, 5, core=0)
    ld.fill(l1s, llc, 5, core=1)
    assert sharers_of(ld, 5) == {0, 1}
    assert owner_of(ld, 5) is None
    assert l1s[0].peek(5) == 0 and l1s[1].peek(5) == 0


def test_modified_fill_sets_owner():
    ld = LocalDirectory(4)
    l1s, llc = socket_caches(4)
    ld.fill(l1s, llc, 5, core=2, modified=True)
    assert owner_of(ld, 5) == 2
    assert l1s[2].peek(5) == MODIFIED | DIRTY
    ld.fill(l1s, llc, 5, core=2, modified=False)
    assert owner_of(ld, 5) is None


def test_shared_fill_by_another_core_keeps_the_owner():
    ld = LocalDirectory(4)
    l1s, llc = socket_caches(4)
    ld.fill(l1s, llc, 5, core=2, modified=True)
    ld.fill(l1s, llc, 5, core=1)
    assert owner_of(ld, 5) == 2
    assert sharers_of(ld, 5) == {1, 2}


def test_write_invalidates_peer_copies():
    ld = LocalDirectory(4)
    l1s, llc = socket_caches(4)
    llc.insert(5)
    ld.fill(l1s, llc, 5, core=0)
    ld.fill(l1s, llc, 5, core=1)
    ld.write(l1s, llc, 5, core=0)
    assert sharers_of(ld, 5) == {0}
    assert owner_of(ld, 5) == 0
    assert l1s[1].peek(5) is None
    assert l1s[0].peek(5) == MODIFIED | DIRTY
    assert llc.peek(5) == MODIFIED | DIRTY


def test_record_eviction_removes_core_and_entry():
    ld = LocalDirectory(4)
    l1s, llc = socket_caches(4, l1_blocks=1)
    llc.insert(5)
    ld.fill(l1s, llc, 5, core=0)
    ld.fill(l1s, llc, 5, core=1, modified=True)
    ld.fill(l1s, llc, 6, core=0)  # displaces 5 from core 0's L1
    assert sharers_of(ld, 5) == {1}
    assert owner_of(ld, 5) == 1
    assert llc.peek(5) == 0
    ld.fill(l1s, llc, 7, core=1)  # displaces the dirty 5 from core 1's L1
    assert 5 not in ld
    assert owner_of(ld, 5) is None
    assert len(ld) == 2
    # The dirty L1 victim was written back into the LLC.
    assert llc.peek(5) == DIRTY


def test_eviction_of_unknown_block_is_noop():
    ld = LocalDirectory(4)
    l1s, llc = socket_caches(4, l1_blocks=1)
    l1s[0].insert(9)  # resident, but never recorded
    ld.fill(l1s, llc, 6, core=0)
    assert len(ld) == 1
    assert l1s[0].peek(9) is None


def test_evict_drops_every_l1_copy():
    ld = LocalDirectory(4)
    l1s, llc = socket_caches(4)
    ld.fill(l1s, llc, 7, core=0)
    ld.fill(l1s, llc, 7, core=3, modified=True)
    assert ld.evict(l1s, 7) == MODIFIED | DIRTY
    assert 7 not in ld
    assert l1s[0].peek(7) is None and l1s[3].peek(7) is None
    assert ld.evict(l1s, 7) == 0


def test_intervene_clears_a_peer_owner_once():
    ld = LocalDirectory(4)
    l1s, llc = socket_caches(4)
    ld.fill(l1s, llc, 5, core=2, modified=True)
    assert ld.intervene(l1s, 5, core=2) is False  # the owner itself
    assert ld.intervene(l1s, 5, core=0) is True
    assert owner_of(ld, 5) is None
    # The owner keeps a Shared copy with its dirty bit.
    assert l1s[2].peek(5) == DIRTY
    assert ld.intervene(l1s, 5, core=0) is False
    assert ld.intervene(l1s, 9, core=0) is False


def test_downgrade_clears_the_owner_and_returns_the_sharers():
    ld = LocalDirectory(4)
    l1s, llc = socket_caches(4)
    ld.fill(l1s, llc, 5, core=3, modified=True)
    assert set(ld.downgrade(5)) == {3}
    assert owner_of(ld, 5) is None
    assert sharers_of(ld, 5) == {3}
    assert list(ld.downgrade(9)) == []


@pytest.mark.parametrize("cores_per_socket", [1, 3, 8, 64])
def test_field_widths_follow_the_core_count(cores_per_socket):
    """Any core count encodes: the highest core owns, then every core shares."""
    ld = LocalDirectory(cores_per_socket)
    l1s, llc = socket_caches(cores_per_socket)
    top = cores_per_socket - 1
    ld.fill(l1s, llc, 1, core=top, modified=True)
    assert owner_of(ld, 1) == top and sharers_of(ld, 1) == {top}
    for core in range(cores_per_socket):
        ld.fill(l1s, llc, 1, core=core)
    assert sharers_of(ld, 1) == set(range(cores_per_socket))
    assert owner_of(ld, 1) is None
    assert list(ld.entries()) == [(1, list(range(cores_per_socket)), None)]


def test_fill_first_drops_the_llc_victims_l1_copies():
    ld = LocalDirectory(4)
    l1s, llc = socket_caches(4)
    ld.fill(l1s, llc, 7, core=0)
    ld.fill(l1s, llc, 7, core=1, modified=True)
    assert ld.fill(l1s, llc, 8, core=2, llc_victim=7) == MODIFIED | DIRTY
    assert 7 not in ld
    assert l1s[0].peek(7) is None and l1s[1].peek(7) is None
    assert sharers_of(ld, 8) == {2}
    # An LLC victim no L1 holds drops nothing.
    assert ld.fill(l1s, llc, 9, core=2, llc_victim=5) == 0

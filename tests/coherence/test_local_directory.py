"""Tests for the intra-socket (local) directory."""

import pytest

from repro.coherence.local_directory import LocalDirectory


def sharers_of(ld, block):
    """The cores ``entries()`` lists as holding ``block`` (empty if none)."""
    return next((set(cores) for b, cores, _owner in ld.entries() if b == block), set())


def owner_of(ld, block):
    """The owner core ``entries()`` lists for ``block`` (None if none)."""
    return next((owner for b, _cores, owner in ld.entries() if b == block), None)


def test_record_fill_and_sharers():
    ld = LocalDirectory(4)
    ld.record_fill(5, core=0)
    ld.record_fill(5, core=1)
    assert sharers_of(ld, 5) == {0, 1}
    assert owner_of(ld, 5) is None


def test_modified_fill_sets_owner():
    ld = LocalDirectory(4)
    ld.record_fill(5, core=2, modified=True)
    assert owner_of(ld, 5) == 2
    ld.record_fill(5, core=2, modified=False)
    assert owner_of(ld, 5) is None


def test_shared_fill_by_another_core_keeps_the_owner():
    ld = LocalDirectory(4)
    ld.record_fill(5, core=2, modified=True)
    ld.record_fill(5, core=1)
    assert owner_of(ld, 5) == 2
    assert sharers_of(ld, 5) == {1, 2}


def test_record_write_returns_peers_to_invalidate():
    ld = LocalDirectory(4)
    ld.record_fill(5, core=0)
    ld.record_fill(5, core=1)
    peers = ld.record_write(5, core=0)
    assert set(peers) == {1}
    assert sharers_of(ld, 5) == {0}
    assert owner_of(ld, 5) == 0


def test_record_eviction_removes_core_and_entry():
    ld = LocalDirectory(4)
    ld.record_fill(5, core=0)
    ld.record_fill(5, core=1, modified=True)
    ld.record_fill(6, core=0, evicted=5)
    assert sharers_of(ld, 5) == {1}
    assert owner_of(ld, 5) == 1
    ld.record_fill(7, core=1, evicted=5)
    assert 5 not in ld
    assert owner_of(ld, 5) is None
    assert len(ld) == 2


def test_eviction_of_unknown_block_is_noop():
    ld = LocalDirectory(4)
    ld.record_fill(6, core=0, evicted=9)
    assert len(ld) == 1


def test_invalidate_block_returns_all_cores():
    ld = LocalDirectory(4)
    ld.record_fill(7, core=0)
    ld.record_fill(7, core=3)
    cores = ld.invalidate_block(7)
    assert set(cores) == {0, 3}
    assert list(ld.invalidate_block(7)) == []


def test_intervene_clears_a_peer_owner_once():
    ld = LocalDirectory(4)
    ld.record_fill(5, core=2, modified=True)
    assert ld.intervene(5, core=2) is None  # the owner itself
    assert ld.intervene(5, core=0) == 2
    assert owner_of(ld, 5) is None
    assert ld.intervene(5, core=0) is None
    assert ld.intervene(9, core=0) is None


def test_downgrade_clears_the_owner_and_returns_the_sharers():
    ld = LocalDirectory(4)
    ld.record_fill(5, core=3, modified=True)
    assert set(ld.downgrade(5)) == {3}
    assert owner_of(ld, 5) is None
    assert sharers_of(ld, 5) == {3}
    assert list(ld.downgrade(9)) == []


@pytest.mark.parametrize("cores_per_socket", [1, 3, 8, 64])
def test_field_widths_follow_the_core_count(cores_per_socket):
    """Any core count encodes: the highest core owns, then every core shares."""
    ld = LocalDirectory(cores_per_socket)
    top = cores_per_socket - 1
    ld.record_fill(1, core=top, modified=True)
    assert owner_of(ld, 1) == top and sharers_of(ld, 1) == {top}
    for core in range(cores_per_socket):
        ld.record_fill(1, core=core)
    assert sharers_of(ld, 1) == set(range(cores_per_socket))
    assert owner_of(ld, 1) is None
    assert list(ld.entries()) == [(1, list(range(cores_per_socket)), None)]

"""Tests for the global directory slice and the storage-cost model."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.coherence.directory import (
    DIR_MODIFIED,
    DIR_SHARED,
    SHARER_SHIFT,
    DirectoryCostModel,
    DirectoryState,
    GlobalDirectory,
    members,
    owner_of,
)


def test_untracked_block_is_invalid():
    directory = GlobalDirectory(0)
    assert directory.lookup(5) is None
    assert directory.decode(5) is None


def test_set_modified_and_shared_transitions():
    directory = GlobalDirectory(0)
    directory.set_modified(7, owner=2)
    entry = directory.decode(7)
    assert entry.state is DirectoryState.MODIFIED
    assert entry.owner == 2
    assert entry.sharers == {2}
    directory.set_shared(7, {1, 2})
    entry = directory.decode(7)
    assert entry.state is DirectoryState.SHARED
    assert entry.owner is None
    assert entry.sharers == {1, 2}
    assert len(directory) == 1


def test_entry_ints_use_the_documented_layout():
    directory = GlobalDirectory(0)
    directory.set_modified(7, owner=2)
    directory.set_shared(8, {0, 3})
    assert directory.lookup(7) == 1 << 2 + SHARER_SHIFT | DIR_MODIFIED
    assert directory.lookup(8) == (1 | 1 << 3) << SHARER_SHIFT | DIR_SHARED
    assert owner_of(directory.lookup(7)) == 2
    assert members(directory.lookup(8) >> SHARER_SHIFT) == [0, 3]


def test_add_sharer_allocates_shared_entry():
    directory = GlobalDirectory(0)
    directory.add_sharer(3, 1)
    directory.add_sharer(3, 2)
    entry = directory.decode(3)
    assert entry.state is DirectoryState.SHARED
    assert entry.sharers == {1, 2}
    assert len(directory) == 1


def test_add_sharer_on_modified_entry_rejected():
    directory = GlobalDirectory(0)
    directory.set_modified(3, owner=0)
    with pytest.raises(ValueError):
        directory.add_sharer(3, 1)


def test_set_shared_requires_sharers():
    directory = GlobalDirectory(0)
    with pytest.raises(ValueError):
        directory.set_shared(3, set())


def test_remove_sharer_deallocates_when_empty():
    directory = GlobalDirectory(0)
    directory.set_shared(3, {1, 2})
    directory.remove_sharer(3, 1)
    assert directory.decode(3).sharers == {2}
    directory.remove_sharer(3, 2)
    assert directory.decode(3) is None
    assert len(directory) == 0


def test_removing_the_owner_frees_a_modified_entry():
    directory = GlobalDirectory(0)
    directory.set_modified(3, owner=1)
    directory.remove_sharer(3, 0)  # not a sharer: no change
    assert directory.decode(3) == (DirectoryState.MODIFIED, 1, frozenset({1}))
    directory.remove_sharer(3, 1)
    assert directory.decode(3) is None
    assert len(directory) == 0


def test_invalidate_untracked_is_noop():
    directory = GlobalDirectory(0)
    directory.add_sharer(3, 0)
    directory.invalidate(9)
    assert list(directory.entries()) == [(3, (DirectoryState.SHARED, None, frozenset({0})))]


def test_peak_entries_tracked():
    directory = GlobalDirectory(0)
    for block in range(10):
        directory.add_sharer(block, 0)
    for block in range(10):
        directory.invalidate(block)
    assert directory.peak_entries == 10
    assert len(directory) == 0


def test_cost_model_matches_paper_section_iii_b():
    model = DirectoryCostModel(num_sockets=4, provisioning=2.0)
    assert model.storage_megabytes(256 * 2**20) == pytest.approx(32.0, rel=0.01)
    assert model.storage_megabytes(1 << 30) == pytest.approx(128.0, rel=0.01)
    minimal = DirectoryCostModel(num_sockets=4, provisioning=1.0)
    assert minimal.storage_megabytes(256 * 2**20) == pytest.approx(16.0, rel=0.01)


def test_cost_model_entry_bits_scale_with_sockets():
    small = DirectoryCostModel(num_sockets=2)
    large = DirectoryCostModel(num_sockets=8)
    assert large.entry_bits() == small.entry_bits() + 6


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 3), st.sampled_from(["M", "S", "I"])),
                max_size=100))
def test_directory_entries_always_well_formed(ops):
    directory = GlobalDirectory(0)
    for block, socket, action in ops:
        if action == "M":
            directory.set_modified(block, socket)
        elif action == "S":
            directory.set_shared(block, {socket})
        else:
            directory.invalidate(block)
    for _block, entry in directory.entries():
        assert entry.state in (DirectoryState.MODIFIED, DirectoryState.SHARED)
        if entry.state is DirectoryState.MODIFIED:
            assert entry.owner is not None
            assert entry.sharers == {entry.owner}
        assert entry.sharers


# ----------------------------------------------------------------------
# Differential test: the int encoding against a reference model of tuples
# ----------------------------------------------------------------------


class ReferenceDirectory:
    """Entries as ``(state letter, owner, frozenset of sharers)`` tuples, with
    the mutable-entry semantics the int encoding replaced."""

    def __init__(self):
        self.entries = {}
        self.peak_entries = 0

    def _get_or_allocate(self, block):
        if block not in self.entries:
            self.entries[block] = ("I", None, frozenset())
            self.peak_entries = max(self.peak_entries, len(self.entries))
        return self.entries[block]

    def lookup(self, block):
        return self.entries.get(block)

    def set_modified(self, block, owner):
        self._get_or_allocate(block)
        self.entries[block] = ("M", owner, frozenset({owner}))

    def set_shared(self, block, sharers):
        if not sharers:
            raise ValueError
        self._get_or_allocate(block)
        self.entries[block] = ("S", None, frozenset(sharers))

    def add_sharer(self, block, socket):
        state, owner, sharers = self._get_or_allocate(block)
        if state == "M":
            raise ValueError
        self.entries[block] = ("S", owner, sharers | {socket})

    def add_shared_entries(self, blocks, sharers):
        added = {}
        for block in blocks:
            if block in self.entries:
                for socket in sorted(sharers):
                    self.add_sharer(block, socket)
            else:
                added[block] = ("S", None, frozenset(sharers))
        if added:
            self.entries.update(added)
            self.peak_entries = max(self.peak_entries, len(self.entries))

    def remove_sharer(self, block, socket):
        if block not in self.entries:
            return
        state, owner, sharers = self.entries[block]
        sharers = sharers - {socket}
        self.entries[block] = (state, None if owner == socket else owner, sharers)
        if not sharers:
            self.invalidate(block)

    def invalidate(self, block):
        self.entries.pop(block, None)

    def decoded(self):
        return [(block, (DirectoryState(state), owner, sharers))
                for block, (state, owner, sharers) in self.entries.items()]

    def modified(self):
        return [(block, owner) for block, (state, owner, _sharers) in self.entries.items()
                if state == "M"]


_dir_blocks = st.integers(0, 7)
_sockets = st.integers(0, 3)
_socket_sets = st.frozensets(_sockets, max_size=4)
_directory_ops = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), _dir_blocks),
        st.tuples(st.just("set_modified"), _dir_blocks, _sockets),
        st.tuples(st.just("set_shared"), _dir_blocks, _socket_sets),
        st.tuples(st.just("add_sharer"), _dir_blocks, _sockets),
        st.tuples(st.just("add_shared_entries"),
                  st.lists(_dir_blocks, unique=True, max_size=5),
                  _socket_sets.filter(bool)),
        st.tuples(st.just("remove_sharer"), _dir_blocks, _sockets),
        st.tuples(st.just("invalidate"), _dir_blocks),
    ),
    max_size=60,
)


def _outcome(call, *args):
    try:
        return call(*args), None
    except ValueError:
        return None, ValueError


@settings(max_examples=200, deadline=None)
@given(_directory_ops)
# add_shared_entries over tracked blocks: Shared ones gain the sockets, a
# Modified one refuses them (and no new entry is added).
@example([("set_shared", 1, frozenset({1})),
          ("add_shared_entries", [0, 1, 2], frozenset({0, 3}))])
@example([("set_modified", 1, 2), ("add_shared_entries", [0, 1], frozenset({0}))])
# remove_sharer of a Modified owner frees the entry; of another socket, not.
@example([("set_modified", 3, 1), ("remove_sharer", 3, 0), ("remove_sharer", 3, 1)])
def test_int_entries_match_a_reference_model(ops):
    """Entries in allocation order (state, owner, sharers), the Modified
    ones with their owners, errors and ``peak_entries`` equal a model
    written with tuples and sets, after every operation."""
    directory = GlobalDirectory(0)
    ref = ReferenceDirectory()
    for op, *args in ops:
        if op == "lookup":
            entry = directory.lookup(args[0])
            expected = ref.lookup(args[0])
            assert (entry is None) == (expected is None)
        else:
            got, error = _outcome(getattr(directory, op), *args)
            assert got is None
            assert _outcome(getattr(ref, op), *args)[1] is error
        assert list(directory.entries()) == ref.decoded()
        assert list(directory.modified_entries()) == ref.modified()
        assert directory.peak_entries == ref.peak_entries

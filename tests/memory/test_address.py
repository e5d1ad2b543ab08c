"""Tests for address/block/page arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.memory.address import DEFAULT_LAYOUT, AddressLayout


def test_default_layout_matches_table_ii():
    assert DEFAULT_LAYOUT.block_size == 64
    assert DEFAULT_LAYOUT.page_size == 4096
    assert DEFAULT_LAYOUT.blocks_per_page() == 64


def test_block_of_and_base():
    layout = AddressLayout()
    assert layout.block_of(0) == 0
    assert layout.block_of(63) == 0
    assert layout.block_of(64) == 1
    assert layout.block_of(130) * layout.block_size == 128


def test_page_of_and_base():
    layout = AddressLayout()
    assert layout.page_of(4095) == 0
    assert layout.page_of(4096) == 1
    assert layout.page_of(5000) * layout.page_size == 4096


def test_page_of_block():
    layout = AddressLayout()
    assert layout.page_of_block(0) == 0
    assert layout.page_of_block(63) == 0
    assert layout.page_of_block(64) == 1


def test_block_to_addr_round_trip():
    layout = AddressLayout()
    for block in (0, 1, 17, 1000):
        assert layout.block_of(block * layout.block_size) == block


def test_same_block_and_page():
    layout = AddressLayout()
    assert layout.block_of(0) == layout.block_of(63)
    assert layout.block_of(63) != layout.block_of(64)
    assert layout.page_of(0) == layout.page_of(4095)
    assert layout.page_of(4095) != layout.page_of(4096)


def test_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        AddressLayout(block_size=48)
    with pytest.raises(ValueError):
        AddressLayout(page_size=3000)
    with pytest.raises(ValueError):
        AddressLayout(block_size=128, page_size=64)


@given(st.integers(min_value=0, max_value=2**48))
def test_block_base_is_aligned_and_contains_addr(addr):
    layout = AddressLayout()
    base = layout.block_of(addr) * layout.block_size
    assert base % layout.block_size == 0
    assert base <= addr < base + layout.block_size


@given(st.integers(min_value=0, max_value=2**48))
def test_block_and_page_are_consistent(addr):
    layout = AddressLayout()
    assert layout.page_of_block(layout.block_of(addr)) == layout.page_of(addr)

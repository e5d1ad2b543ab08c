"""Tests for NUMA allocation policies and the address mapper."""

import pytest
from hypothesis import given, strategies as st

from repro.memory.address import AddressLayout
from repro.memory.allocation import (
    AddressMapper,
    FirstTouchPolicy,
    InterleavePolicy,
    make_policy,
)


def test_interleave_round_robin():
    policy = InterleavePolicy(4)
    assert [policy.home_of_page(page) for page in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_interleave_ignores_toucher():
    policy = InterleavePolicy(4)
    assert policy.home_of_page(5, toucher_socket=3) == 1


def test_first_touch_pins_to_first_toucher():
    policy = FirstTouchPolicy(4)
    assert policy.home_of_page(10, toucher_socket=2) == 2
    # Subsequent touches by other sockets do not move the page.
    assert policy.home_of_page(10, toucher_socket=3) == 2


def test_first_touch_pin_page_overrides():
    policy = FirstTouchPolicy(4)
    policy.pin_page(7, 1)
    assert policy.home_of_page(7, toucher_socket=3) == 1


def test_first_touch_lookup_without_toucher_is_deterministic():
    policy = FirstTouchPolicy(4)
    assert policy.home_of_page(9) == policy.home_of_page(9)


def test_make_policy_names():
    assert isinstance(make_policy("interleave", 2), InterleavePolicy)
    assert isinstance(make_policy("ft1", 2), FirstTouchPolicy)
    assert isinstance(make_policy("ft2", 2), FirstTouchPolicy)
    assert isinstance(make_policy("first_touch", 2), FirstTouchPolicy)
    with pytest.raises(ValueError):
        make_policy("random", 2)


def test_policy_requires_positive_sockets():
    with pytest.raises(ValueError):
        InterleavePolicy(0)


def test_mapper_touch_and_footprint():
    mapper = AddressMapper(FirstTouchPolicy(2), AddressLayout())
    home = mapper.touch(0x10000, socket=1)
    assert home == 1
    assert mapper.home_of_block(0x10000 // 64) == 1
    assert mapper.touch(0x10000 + 4095, socket=0) == 1   # same page, still pinned


def test_mapper_home_of_block_matches_page():
    layout = AddressLayout()
    mapper = AddressMapper(InterleavePolicy(4), layout)
    block = layout.block_of(3 * 4096)
    assert mapper.home_of_block(block) == 3


@given(st.integers(min_value=1, max_value=8), st.lists(st.integers(0, 2**30), max_size=50))
def test_interleave_homes_always_in_range(num_sockets, pages):
    policy = InterleavePolicy(num_sockets)
    for page in pages:
        assert 0 <= policy.home_of_page(page) < num_sockets


@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 7)), max_size=60),
)
def test_first_touch_is_sticky(num_sockets, touches):
    policy = FirstTouchPolicy(num_sockets)
    first_seen = {}
    for page, socket in touches:
        home = policy.home_of_page(page, toucher_socket=socket)
        if page not in first_seen:
            first_seen[page] = home
        assert home == first_seen[page]

"""Tests for the ring and point-to-point topologies."""

import pytest
from hypothesis import given, strategies as st

from repro.interconnect.topology import (
    PointToPointTopology,
    RingTopology,
    make_topology,
)


def test_ring_hop_counts_quad_socket():
    ring = RingTopology(4)
    assert len(ring.route(0, 0)) == 0
    assert len(ring.route(0, 1)) == 1
    assert len(ring.route(0, 2)) == 2
    assert len(ring.route(0, 3)) == 1  # shorter way around


def test_ring_route_is_contiguous():
    ring = RingTopology(4)
    route = ring.route(0, 2)
    assert route in ([(0, 1), (1, 2)], [(0, 3), (3, 2)])
    for (a, b), (c, _d) in zip(route, route[1:]):
        assert b == c


def test_p2p_single_hop():
    p2p = PointToPointTopology(2)
    assert p2p.route(0, 1) == [(0, 1)]
    assert p2p.route(1, 1) == []


def test_links_enumeration():
    ring = RingTopology(4)
    links = ring.links()
    assert (0, 1) in links and (1, 0) in links
    assert len(links) == 8  # 4 bidirectional ring links
    p2p = PointToPointTopology(3)
    assert len(p2p.links()) == 6


def test_out_of_range_socket_rejected():
    ring = RingTopology(4)
    with pytest.raises(ValueError):
        ring.route(0, 4)
    with pytest.raises(ValueError):
        ring.route(-1, 0)


def test_factory():
    assert isinstance(make_topology("ring", 4), RingTopology)
    assert isinstance(make_topology("p2p", 2), PointToPointTopology)
    # One spelling per machine: another would hash to another store key.
    for name in ("torus", "mesh", "point-to-point", "Ring"):
        with pytest.raises(ValueError):
            make_topology(name, 4)


@given(st.integers(2, 8), st.integers(0, 7), st.integers(0, 7))
def test_ring_routes_end_at_destination(n, src, dst):
    src %= n
    dst %= n
    ring = RingTopology(n)
    route = ring.route(src, dst)
    if src == dst:
        assert route == []
    else:
        assert route[0][0] == src
        assert route[-1][1] == dst
        assert len(route) <= n // 2 + 1


@given(st.integers(2, 8), st.integers(0, 7), st.integers(0, 7))
def test_ring_hops_symmetric(n, a, b):
    a %= n
    b %= n
    ring = RingTopology(n)
    assert len(ring.route(a, b)) == len(ring.route(b, a))

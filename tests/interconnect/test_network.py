"""Tests for the inter-socket network (links, packets, byte accounting)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.interconnect.link import Link
from repro.interconnect.network import Interconnect
from repro.interconnect.packet import (
    CONTROL_PACKET_BYTES,
    DATA_PACKET_BYTES,
    MessageClass,
    PacketKind,
)
from repro.interconnect.topology import PointToPointTopology, RingTopology


def make_network(n=4, topology="ring", **kwargs):
    topo = RingTopology(n) if topology == "ring" else PointToPointTopology(n)
    return Interconnect(topo, **kwargs)


def test_packet_sizes_follow_table_ii():
    assert CONTROL_PACKET_BYTES == 16
    assert DATA_PACKET_BYTES == 80
    assert MessageClass.REQUEST.kind is PacketKind.CONTROL
    assert MessageClass.DATA_RESPONSE.kind is PacketKind.DATA
    assert MessageClass.WRITEBACK.kind is PacketKind.DATA


def test_send_latency_is_hops_times_hop_latency():
    assert make_network(4, hop_latency_ns=20.0).send(
        0.0, 0, 1, MessageClass.REQUEST
    ) == pytest.approx(20.0)
    assert make_network(4, hop_latency_ns=20.0).send(
        0.0, 0, 2, MessageClass.REQUEST
    ) == pytest.approx(40.0)


def test_same_socket_send_is_free_and_untracked():
    network = make_network()
    assert network.send(0.0, 1, 1, MessageClass.REQUEST) == 0.0
    assert network.bytes_sent == 0


def test_traffic_accounting_by_class():
    network = make_network()
    network.send(0.0, 0, 1, MessageClass.REQUEST)
    network.send(0.0, 1, 0, MessageClass.DATA_RESPONSE)
    assert network.bytes_sent == 16 + 80


def test_zero_latency_idealisation():
    network = make_network(4, zero_latency=True)
    assert network.send(0.0, 0, 2, MessageClass.REQUEST) == 0.0
    assert network.bytes_sent > 0  # traffic still counted


def _one_link(**kwargs):
    """Sockets 0 and 1 joined by one 1 B/ns link and no hop latency, so a
    send's latency is its queueing delay on that link."""
    return make_network(2, topology="p2p", hop_latency_ns=0.0,
                        link_bandwidth_gbps=1.0, **kwargs)


def test_link_queueing_and_infinite_bandwidth():
    network = _one_link()
    data = MessageClass.DATA_RESPONSE                    # 80 B
    assert network.send(0.0, 0, 1, data) == 0.0
    assert network.send(0.0, 0, 1, data) == pytest.approx(80.0)
    assert network.send(10.0, 0, 1, data) > 0.0
    fast = _one_link(infinite_bandwidth=True)
    for _ in range(3):
        assert fast.send(0.0, 0, 1, data) == 0.0
    with pytest.raises(ValueError):
        Link(0, 1, 0.0)


def test_link_out_of_order_arrival_not_charged():
    network = _one_link()
    network.send(100.0, 0, 1, MessageClass.DATA_RESPONSE)
    assert network.send(1.0, 0, 1, MessageClass.DATA_RESPONSE) == 0.0


def test_reset_counters():
    network = make_network()
    network.send(0.0, 0, 1, MessageClass.REQUEST)
    network.reset_counters()
    assert network.bytes_sent == 0


# ----------------------------------------------------------------------
# Interconnect.send against a hop-by-hop link reference
# ----------------------------------------------------------------------


def _occupy(link, now, size_bytes):
    """Reserve ``link`` for ``size_bytes`` from ``now``; return the queueing
    delay (the Link class docstring's busy-until rule, spelled out)."""
    if link.infinite_bandwidth or now < link.last_arrival:
        return 0.0
    link.last_arrival = now
    start = max(now, link.busy_until)
    queue_delay = start - now
    link.busy_until = start + size_bytes / link.bandwidth_bytes_per_ns
    return queue_delay


class ReferenceNetwork:
    """The network model spelled out: one :func:`_occupy` per hop of the route.

    A packet's latency starts as hops x hop latency; each hop adds the
    queueing delay its link charges, and the packet reaches the next link
    at ``now`` plus the latency so far.
    """

    def __init__(self, topology, *, hop_latency_ns, link_bandwidth_gbps,
                 zero_latency, infinite_bandwidth):
        self.topology = topology
        self.hop_latency_ns = 0.0 if zero_latency else hop_latency_ns
        self.links = {
            pair: Link(*pair, link_bandwidth_gbps, infinite_bandwidth=infinite_bandwidth)
            for pair in topology.links()
        }
        self.bytes_sent = 0

    def send(self, now, src, dst, message_class):
        if src == dst:
            return 0.0
        size = DATA_PACKET_BYTES if message_class.kind is PacketKind.DATA else (
            CONTROL_PACKET_BYTES
        )
        route = self.topology.route(src, dst)
        latency = self.hop_latency_ns * len(route)
        arrival = now
        for hop in route:
            latency += _occupy(self.links[hop], arrival, size)
            arrival = now + latency
        self.bytes_sent += size
        return latency


def _link_state(link):
    return (link.busy_until, link.last_arrival)


_TOPOLOGIES = {"ring4": lambda: RingTopology(4), "p2p2": lambda: PointToPointTopology(2)}

_sends = st.lists(
    st.tuples(
        # Coarse, repeating times: packets collide on links, and arrive out
        # of time order as skewed cores do.
        st.integers(min_value=0, max_value=40).map(lambda t: t * 2.5),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.sampled_from(list(MessageClass)),
    ),
    max_size=60,
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    topology=st.sampled_from(sorted(_TOPOLOGIES)),
    bandwidth=st.sampled_from([0.25, 1.0, 25.6]),
    infinite_bandwidth=st.booleans(),
    zero_latency=st.booleans(),
    sends=_sends,
)
# A ring broadcast from socket 0: the packets to sockets 1 and 2 share the
# first hop, so the second one queues behind the first, as do their acks.
@example(topology="ring4", bandwidth=25.6, infinite_bandwidth=False, zero_latency=False,
         sends=[(0.0, 0, dst, MessageClass.BROADCAST_INVALIDATION) for dst in (1, 2, 3)]
         + [(20.0, 1, 0, MessageClass.ACK), (40.0, 2, 0, MessageClass.ACK)])
# A 2-hop packet queueing at its route's second link only.
@example(topology="ring4", bandwidth=1.0, infinite_bandwidth=False, zero_latency=False,
         sends=[(40.0, 1, 2, MessageClass.DATA_RESPONSE), (0.0, 0, 2, MessageClass.REQUEST)])
def test_send_matches_hop_by_hop_link_reference(topology, bandwidth, infinite_bandwidth,
                                                zero_latency, sends):
    options = dict(hop_latency_ns=20.0, link_bandwidth_gbps=bandwidth,
                   zero_latency=zero_latency, infinite_bandwidth=infinite_bandwidth)
    topo = _TOPOLOGIES[topology]()
    network = Interconnect(topo, **options)
    reference = ReferenceNetwork(topo, **options)
    for now, src, dst, message_class in sends:
        src %= topo.num_sockets
        dst %= topo.num_sockets
        # Exact equality: the same float operations in the same order.
        assert network.send(now, src, dst, message_class) == reference.send(
            now, src, dst, message_class
        )
    for pair, link in reference.links.items():
        assert _link_state(network._links[pair]) == _link_state(link)
    assert network.bytes_sent == reference.bytes_sent


def test_send_queues_at_a_routes_second_link():
    """0 -> 2 on a 4-ring crosses 0->1 (idle) then 1->2 (busy until 120 ns)."""
    network = make_network(4, hop_latency_ns=20.0, link_bandwidth_gbps=1.0)
    network.send(40.0, 1, 2, MessageClass.DATA_RESPONSE)  # 80 B at 1 B/ns
    # Arrives at 1->2 at now + 40 ns = 40 ns and waits 80 ns for it.
    assert network.send(0.0, 0, 2, MessageClass.REQUEST) == pytest.approx(120.0)

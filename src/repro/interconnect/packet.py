"""Inter-socket packet definitions.

Table II specifies 16-byte control packets and 80-byte data packets (64-byte
payload plus header).  Every inter-socket message belongs to one of a small
number of classes, which the statistics module uses to break down traffic
(e.g. the broadcast-invalidation traffic studied in section VI-C is entirely
control traffic, which is why its byte contribution is small).
"""

from __future__ import annotations

import enum

__all__ = ["PacketKind", "MessageClass", "CONTROL_PACKET_BYTES", "DATA_PACKET_BYTES"]

#: Default packet sizes from Table II.
CONTROL_PACKET_BYTES = 16
DATA_PACKET_BYTES = 80


class PacketKind(enum.Enum):
    """Physical packet size class."""

    CONTROL = "control"
    DATA = "data"

    # Enum's default __hash__ is a Python-level function; identity hashing is
    # equivalent for enum members and stays in C on the hot traffic counters.
    __hash__ = object.__hash__


class MessageClass(enum.Enum):
    """Semantic class of an inter-socket message (for traffic breakdowns)."""

    REQUEST = "request"              # GetS / GetX / Upgrade forwarded to the home
    SNOOP = "snoop"                  # snoop probes (snoopy protocol)
    INVALIDATION = "invalidation"    # directed invalidations
    BROADCAST_INVALIDATION = "broadcast_invalidation"  # C3D untracked-write broadcasts
    ACK = "ack"                      # acknowledgements / completion messages
    DATA_RESPONSE = "data_response"  # cache-block-carrying responses
    WRITEBACK = "writeback"          # PutX / memory write-through data
    FORWARD = "forward"              # home-to-owner forwarded requests

    __hash__ = object.__hash__       # identity hashing, C-level (hot counters)

    @property
    def kind(self) -> PacketKind:
        """Physical packet kind carrying this message class."""
        if self in (MessageClass.DATA_RESPONSE, MessageClass.WRITEBACK):
            return PacketKind.DATA
        return PacketKind.CONTROL

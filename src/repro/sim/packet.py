"""Packet representation for the scheduling substrate."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, List, Optional

#: Standard Ethernet MTU payload size used throughout the evaluation
#: ("we schedule at MTU granularity", Section 6.3).
MTU_BYTES = 1500

_packet_ids = itertools.count()


def reset_packet_ids(start: int = 0) -> None:
    """Restart the global packet-id counter at ``start``.

    Sweep runners call this per sweep point (with disjoint strides) so
    packet ids are a function of the point alone — identical whether
    points run sequentially or fanned across worker processes.
    """
    global _packet_ids
    _packet_ids = itertools.count(start)


@dataclass(slots=True, init=False)
class Packet:
    """One packet resident in a flow queue.

    ``rank`` and ``send_time`` are the per-packet scheduling attributes
    used by the *input-triggered* programming model (Section 3.2.1), where
    the Pre-Enqueue function runs at packet arrival and stores the
    attributes on the packet; the flow element inherits them from the
    queue head.  ``eligible_time`` carries externally-imposed per-packet
    release times (RCSP, Section 4.2).
    """

    flow_id: Hashable
    size_bytes: int = MTU_BYTES
    arrival_time: float = 0.0
    eligible_time: float = 0.0
    rank: float = 0.0
    send_time: float = 0.0
    #: Drawn from the global packet-id counter when none is given.
    packet_id: Optional[int] = None
    #: Filled in by the transmit engine.
    departure_time: Optional[float] = None
    #: Destination endpoint for routed (multi-switch) traffic; None for
    #: the single-switch setups, where the classifier decides alone.
    dst: Optional[Hashable] = None
    #: Remaining hop budget; each :class:`repro.net` switch decrements
    #: it and drops at zero.  0 means "not routed" (single-switch runs
    #: never touch it).
    ttl: int = 0
    #: Switches traversed so far (incremented per switch ingest).
    hops: int = 0
    #: Path provenance: node ids appended at each switch ingest when the
    #: fabric records provenance; None when disabled (saves the list).
    path: Optional[List[Hashable]] = None

    # Hand-written rather than generated: one frame per packet (the
    # generated __init__ calls a default-factory lambda and
    # __post_init__).  The id is drawn before the size check, as the
    # generated one did.
    def __init__(self, flow_id: Hashable, size_bytes: int = MTU_BYTES,
                 arrival_time: float = 0.0, eligible_time: float = 0.0,
                 rank: float = 0.0, send_time: float = 0.0,
                 packet_id: Optional[int] = None,
                 departure_time: Optional[float] = None,
                 dst: Optional[Hashable] = None, ttl: int = 0,
                 hops: int = 0,
                 path: Optional[List[Hashable]] = None) -> None:
        self.flow_id = flow_id
        self.size_bytes = size_bytes
        self.arrival_time = arrival_time
        self.eligible_time = eligible_time
        self.rank = rank
        self.send_time = send_time
        self.packet_id = (next(_packet_ids) if packet_id is None
                          else packet_id)
        self.departure_time = departure_time
        self.dst = dst
        self.ttl = ttl
        self.hops = hops
        self.path = path
        if size_bytes <= 0:
            raise ValueError("packet size must be positive")

    @property
    def size_bits(self) -> int:
        return self.size_bytes * 8

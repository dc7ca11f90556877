"""Per-flow FIFO queues (Fig. 1: "per flow FIFO queues").

Packets within each flow queue are always served in FIFO order; the
scheduler only decides *which flow* transmits next (Section 2.1).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, Optional

from repro.sim.packet import Packet


class FlowQueue:
    """A flow (or traffic class) and its FIFO packet queue.

    Parameters
    ----------
    flow_id:
        Unique identifier.
    weight:
        Fair-queuing weight (WFQ / WF2Q+, Section 4.1).
    rate_bps:
        Per-flow rate for shaping algorithms (Token Bucket, Section 4.2),
        in bits/second.
    priority:
        Static priority for priority schedulers (RCSP, strict priority).
    group:
        Logical-PIEO index for hierarchical scheduling (Section 4.3).

    ``state`` is the per-flow scheduling state of the programming
    framework (Section 3.2.1) — algorithms keep values such as
    ``finish_time``, ``tokens``, or ``deficit_counter`` in it.
    """

    def __init__(self, flow_id: Hashable, weight: float = 1.0,
                 rate_bps: float = 0.0, priority: int = 0,
                 group: int = 0) -> None:
        if weight <= 0:
            raise ValueError("weight must be positive")
        self.flow_id = flow_id
        self.weight = weight
        self.rate_bps = rate_bps
        self.priority = priority
        self.group = group
        self.queue: Deque[Packet] = deque()
        #: Algorithm-owned per-flow scheduling state.
        self.state: Dict[str, float] = {}
        # Statistics.
        self.packets_enqueued = 0
        self.packets_dequeued = 0
        self.bytes_enqueued = 0
        self.bytes_dequeued = 0
        # Admission/drop accounting (maintained by the buffer manager).
        self.packets_dropped = 0
        self.bytes_dropped = 0
        # Incremental backlog so capacity checks are O(1), not O(depth).
        self._backlog_bytes = 0

    # -- queue operations -------------------------------------------------
    def push(self, packet: Packet) -> bool:
        """Append a packet; returns True if the queue was empty before."""
        was_empty = not self.queue
        self.queue.append(packet)
        self.packets_enqueued += 1
        self.bytes_enqueued += packet.size_bytes
        self._backlog_bytes += packet.size_bytes
        return was_empty

    def pop(self) -> Packet:
        packet = self.queue.popleft()
        self.packets_dequeued += 1
        self.bytes_dequeued += packet.size_bytes
        self._backlog_bytes -= packet.size_bytes
        return packet

    def drop_tail(self) -> Packet:
        """Evict the most recent packet (push-out drop policies).

        Only safe while the queue keeps at least one packet afterwards:
        the flow's residency in the scheduler's ordered list is keyed on
        "has backlog", and evicting the last packet would strand a
        resident element pointing at an empty queue.
        """
        if len(self.queue) < 2:
            raise ValueError(
                "drop_tail needs >= 2 queued packets (evicting the last "
                "one would strand the flow's ordered-list residency)")
        packet = self.queue.pop()
        self.packets_dropped += 1
        self.bytes_dropped += packet.size_bytes
        self._backlog_bytes -= packet.size_bytes
        return packet

    @property
    def head(self) -> Optional[Packet]:
        return self.queue[0] if self.queue else None

    def head_size(self) -> int:
        """Size in bytes of the head packet (0 when empty)."""
        return self.queue[0].size_bytes if self.queue else 0

    @property
    def is_empty(self) -> bool:
        return not self.queue

    def __len__(self) -> int:
        return len(self.queue)

    @property
    def backlog_bytes(self) -> int:
        return self._backlog_bytes

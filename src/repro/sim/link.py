"""Output-link model.

Models the wire of Fig. 1: a fixed-rate serial link that is either idle or
transmitting one packet.  The transmit engine asks the scheduler for the
next packet exactly when the link goes idle ("triggered whenever the link
is idle", Fig. 3).
"""

from __future__ import annotations

import math

from repro.obs.scope import NULL_TRACER
from repro.sim.packet import Packet

GBPS = 1e9


class Link:
    """A fixed-rate transmission link.

    ``tracer`` observes serialization: one ``link_busy`` event per packet
    accepted onto the wire (with its finish time); the transmit engine
    emits the matching ``link_idle`` when a batch completes.
    """

    def __init__(self, rate_bps: float, tracer=None) -> None:
        if not 0 < rate_bps < math.inf:  # also rejects NaN
            raise ValueError("link rate must be positive and finite")
        self.rate_bps = rate_bps
        self.busy_until = 0.0
        self.bytes_sent = 0
        self.packets_sent = 0
        self.busy_time = 0.0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._traced = self.tracer is not NULL_TRACER

    def transmission_time(self, packet: Packet) -> float:
        """Serialization delay of ``packet`` in seconds."""
        return packet.size_bits / self.rate_bps

    def is_idle(self, now: float) -> bool:
        return now >= self.busy_until

    def transmit(self, packet: Packet, now: float) -> float:
        """Start transmitting ``packet`` at ``now``; returns finish time."""
        if now < self.busy_until:
            raise RuntimeError(
                f"link busy until {self.busy_until}, cannot transmit at "
                f"{now}")
        duration = packet.size_bytes * 8 / self.rate_bps
        finish = now + duration
        self.busy_until = finish
        self.bytes_sent += packet.size_bytes
        self.packets_sent += 1
        self.busy_time += duration
        if self._traced:
            self.tracer.link_busy(now, until=finish,
                                  flow_id=packet.flow_id)
        return finish

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds the link spent transmitting."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


def gbps(value: float) -> float:
    """Convenience: convert Gbit/s to bit/s."""
    return value * GBPS

"""Host: a fabric endpoint with a NIC queue.

A host is where flows are born and die.  Sending is *open-loop*: when a
flow opens, all its packets enter the NIC at once (no congestion
control — the PIFO/SP-PIFO evaluation convention, which isolates the
*scheduling* policy's effect on FCT from transport dynamics), and the
NIC serializes them onto the uplink at line rate.  The NIC is a real
single-port :class:`~repro.sim.dataplane.Dataplane` running its own
PIEO scheduler, so concurrent flows at one host share the uplink under
the same policy family as the switches (default DRR: per-flow fair
share, the closest open-loop stand-in for per-connection pacing).

Trace events from the NIC carry ``switch=<host>`` and
``port=<uplink>`` labels — a host hop is analyzed exactly like a
one-port switch.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Hashable, List, Optional

from repro.errors import ConfigurationError
from repro.net.switch import first_arrival_sink
from repro.net.topology import Topology
from repro.obs.metrics import scoped
from repro.obs.trace import labelled
from repro.sched.framework import PieoScheduler
from repro.sched.registry import make_algorithm
from repro.sim.dataplane import Dataplane
from repro.sim.events import Simulator
from repro.sim.packet import MTU_BYTES, Packet

#: Default hop budget stamped on routed packets (standard IP default;
#: far above any fabric diameter here, so it only fires when a test
#: forces it).
DEFAULT_TTL = 64


class Host:
    """One endpoint: NIC dataplane + flow packetization + receive."""

    def __init__(self, name: str, sim: Simulator, topology: Topology,
                 forward: Callable[[str, Packet], None],
                 algorithm: str = "drr",
                 backend: Optional[str] = None,
                 tracer=None, metrics=None) -> None:
        neighbors = topology.neighbors(name)
        if len(neighbors) != 1:
            raise ConfigurationError(
                f"host {name!r} needs exactly one uplink, has "
                f"{len(neighbors)}")
        self.name = name
        self.sim = sim
        self.uplink = neighbors[0]
        self.received_pkts = 0
        self.received_bytes = 0
        link = topology.link(name, self.uplink)
        self.dataplane = Dataplane(
            sim, tracer=labelled(tracer, switch=name),
            metrics=scoped(metrics, f"host.{name}"))

        def make_scheduler(port_tracer, port_metrics):
            return PieoScheduler(make_algorithm(algorithm),
                                 link_rate_bps=link.rate_bps,
                                 backend=backend,
                                 tracer=port_tracer,
                                 metrics=port_metrics)

        self.port = self.dataplane.add_port(
            self.uplink, make_scheduler=make_scheduler,
            link_rate_bps=link.rate_bps,
            on_departure=partial(forward, self.uplink))

    # -- sending --------------------------------------------------------
    def inject(self, packet: Packet) -> None:
        """One routed packet into the NIC queue (flow lazily
        registered)."""
        flow_id = packet.flow_id
        sink = self.dataplane.sinks.get(flow_id)
        if sink is None:
            sink = first_arrival_sink(self.dataplane, flow_id)
        sink(flow_id, packet)

    def send_flow(self, flow_id: Hashable, dst: str, size_bytes: int,
                  ttl: int = DEFAULT_TTL,
                  record_path: bool = False) -> int:
        """Packetize a whole flow into the NIC now (open loop).
        Returns the packet count."""
        if size_bytes <= 0:
            raise ConfigurationError("flow size must be positive")
        now = self.sim.now
        count = 0
        remaining = size_bytes
        while remaining > 0:
            size = min(MTU_BYTES, remaining)
            path: Optional[List[str]] = [self.name] if record_path \
                else None
            self.inject(Packet(flow_id, size_bytes=size,
                               arrival_time=now, dst=dst, ttl=ttl,
                               path=path))
            remaining -= size
            count += 1
        return count

    def flow_sink(self, flow_id: Hashable, dst: str,
                  ttl: int = DEFAULT_TTL,
                  record_path: bool = False):
        """An :data:`~repro.sim.generators.ArrivalSink` that routes a
        generator's packets to ``dst`` — lets any existing packet
        generator (CBR, Poisson, on/off) drive the fabric."""

        def sink(sink_flow_id: Hashable, packet: Packet) -> None:
            packet.dst = dst
            packet.ttl = ttl
            if record_path:
                packet.path = [self.name]
            self.inject(packet)

        return sink

    # -- receiving ------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        self.received_pkts += 1
        self.received_bytes += packet.size_bytes

    def conservation(self):
        return self.dataplane.conservation()

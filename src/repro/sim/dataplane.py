"""Dataplane: N ports, one shared buffer, one clock.

The switch-level composition the paper's hardware targets (Fig. 1 per
port, tens of thousands of flows per chip): a
:class:`~repro.sim.classifier.Classifier` assigns each arriving packet
to an output :class:`~repro.sim.port.Port`, a shared
:class:`~repro.sim.buffer.BufferManager` decides admission against the
common packet memory, and every port's scheduler + link + engine runs
on one :class:`~repro.sim.events.Simulator` so cross-port event order
is globally deterministic.

Determinism contract: with the same arrival program, classifier,
buffer configuration, and schedulers, a multi-port run is reproducible
event-for-event — ties between ports at the same instant resolve by
schedule order on the shared simulator (the ``(time, seq)`` key), and
all drop decisions are either deterministic (tail-drop, push-out) or
driven by a seeded RNG (RED).  With more than one port the engines'
batched drain automatically degrades to the event-driven tail
(:meth:`Simulator.advance_to` refuses once a second clock consumer
registers), which serializes the ports correctly at identical output.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional

from repro.errors import ConfigurationError
from repro.obs.metrics import scoped
from repro.obs.trace import labelled
from repro.sim.classifier import Classifier
from repro.sim.events import Simulator
from repro.sim.link import Link
from repro.sim.packet import Packet
from repro.sim.port import Port
from repro.sim.recorder import Recorder


class Dataplane:
    """Hosts N :class:`Port` instances on one simulator.

    ``classifier`` maps flow ids to port ids (optional while the
    dataplane has exactly one port, which then receives everything);
    it is asked once per flow, on the flow's first arrival (see
    :meth:`bind_flow`).  ``buffer`` is the shared
    :class:`BufferManager` (optional: without it admission is
    unbounded, as in the single-link setups).
    """

    def __init__(self, sim: Simulator,
                 classifier: Optional[Classifier] = None,
                 buffer=None, tracer=None, metrics=None) -> None:
        self.sim = sim
        self.classifier = classifier
        self.buffer = buffer
        self.tracer = tracer
        self.metrics = metrics
        self.ports: Dict[Hashable, Port] = {}
        #: Flow id -> its port's engine sink, filled on the flow's first
        #: arrival: classification is per-flow constant, so the
        #: classifier is asked once per flow.
        self.sinks: Dict[Hashable, Callable[[Hashable, Packet],
                                            None]] = {}
        if buffer is not None:
            buffer.attach_clock(lambda: sim.now)

    # -- construction --------------------------------------------------
    def add_port(self, port_id: Hashable, scheduler=None,
                 link: Optional[Link] = None, *,
                 make_scheduler: Optional[Callable] = None,
                 link_rate_bps: Optional[float] = None,
                 recorder: Optional[Recorder] = None,
                 on_departure=None) -> Port:
        """Create and register a port.

        Either pass a constructed ``scheduler`` (and ``link``), or pass
        ``make_scheduler(tracer, metrics)`` + ``link_rate_bps`` and the
        dataplane builds both with the port's labelled tracer / scoped
        metrics so scheduler- and link-level events carry the port
        field too.  ``on_departure(packet)`` is the port's post-transmit
        hook (next-hop forwarding in :mod:`repro.net`).
        """
        if port_id in self.ports:
            raise ConfigurationError(f"duplicate port id {port_id!r}")
        port_tracer = labelled(self.tracer, port=str(port_id))
        port_metrics = scoped(self.metrics, f"port.{port_id}")
        if scheduler is None:
            if make_scheduler is None:
                raise ConfigurationError(
                    "add_port needs scheduler= or make_scheduler=")
            scheduler = make_scheduler(port_tracer, port_metrics)
        if link is None:
            if link_rate_bps is None:
                raise ConfigurationError(
                    "add_port needs link= or link_rate_bps=")
            link = Link(link_rate_bps, tracer=port_tracer)
        port = Port(port_id, self.sim, scheduler, link,
                    buffer=self.buffer, recorder=recorder,
                    tracer=port_tracer, metrics=port_metrics,
                    on_departure=on_departure)
        self.ports[port_id] = port
        # A new port can change where (or whether) an unclassified
        # dataplane routes a flow: classify every flow afresh.
        self.sinks.clear()
        return port

    # -- traffic entry -------------------------------------------------
    def arrival_sink(self, flow_id: Hashable, packet: Packet) -> None:
        """Deliver one arriving packet to its port's engine (plug this
        into the traffic generators)."""
        sink = self.sinks.get(flow_id)
        if sink is None:
            sink = self.bind_flow(flow_id).arrival_sink
        sink(flow_id, packet)

    def bind_flow(self, flow_id: Hashable) -> Port:
        """Classify ``flow_id``, cache its engine sink in
        :attr:`sinks`, and return its port.

        Runs on a flow's first arrival (callers that register flows
        lazily, like :meth:`FabricSwitch.ingest
        <repro.net.switch.FabricSwitch.ingest>`, call it on a miss in
        :attr:`sinks`); a failed classification is not cached, so it
        raises again on the flow's next arrival.
        """
        if self.classifier is not None:
            port_id = self.classifier.port_of(flow_id)
            port = self.ports.get(port_id)
            if port is None:
                raise ConfigurationError(
                    f"classifier routed flow {flow_id!r} to unknown "
                    f"port {port_id!r}")
        elif len(self.ports) == 1:
            port = next(iter(self.ports.values()))
        else:
            raise ConfigurationError(
                "a multi-port dataplane needs a classifier")
        self.sinks[flow_id] = port.arrival_sink
        return port

    # -- reporting ------------------------------------------------------
    @property
    def arrivals(self) -> int:
        """Packets offered to the ports (admitted or dropped)."""
        return sum(port.engine.arrivals for port in self.ports.values())

    def departures(self) -> int:
        """Total packets transmitted across all ports."""
        return sum(len(port.recorder) for port in self.ports.values())

    def conservation(self) -> Dict[str, int]:
        """Packet-conservation snapshot.

        ``arrivals == departures + drops + residue`` must hold at any
        instant: every packet offered to the dataplane either left on a
        wire, was dropped by admission/push-out, or is still buffered.
        """
        drops = self.buffer.dropped if self.buffer is not None else 0
        residue = self.buffer.total_pkts \
            if self.buffer is not None else None
        arrivals = self.arrivals
        departures = self.departures()
        if residue is None:
            residue = arrivals - departures - drops
        return {
            "arrivals": arrivals,
            "departures": departures,
            "drops": drops,
            "residue": residue,
            "balanced": arrivals == departures + drops + residue,
        }

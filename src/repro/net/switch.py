"""FabricSwitch: one Dataplane per topology switch.

Reuses the single-switch stack verbatim — one
:class:`~repro.sim.port.Port` (PIEO scheduler + link + transmit
engine) per outgoing topology link, an optional shared
:class:`~repro.sim.buffer.BufferManager`, a classifier for output-port
selection — and adds only what multi-hop needs:

* the classifier is a :class:`NextHopClassifier` answering from the
  routing table (ECMP per flow — the choice is per-flow constant, see
  :mod:`repro.net.routing`, so it is asked once per flow);
* :meth:`ingest` decrements TTL (tracing an ``arrival`` + ``drop
  reason="ttl-expired"`` pair on expiry, so per-switch conservation
  still balances), stamps hop-count / path provenance, and hands the
  packet to its port's engine through the dataplane's per-flow sink
  table; on a flow's first packet it classifies the flow and
  registers its :class:`~repro.sim.flow.FlowQueue` at the chosen
  output port (hosts open flows at runtime; pre-registering every
  flow at every switch would defeat the point);
* every component sees a ``switch=<name>``-labelled tracer view and a
  ``switch.<name>``-scoped metrics view, so one trace stream carries
  per-switch tracks that :mod:`repro.obs` splits back apart.

The per-port ``on_departure`` hook hands transmitted packets to the
fabric, which schedules delivery at the far end after the link's
propagation delay.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Hashable, Optional

from repro.net.routing import (FiveTuple, RoutingTable, ecmp_next_hop)
from repro.net.topology import Topology
from repro.obs.metrics import scoped
from repro.obs.trace import labelled
from repro.sched.framework import PieoScheduler
from repro.sched.registry import make_algorithm
from repro.sim.classifier import Classifier
from repro.sim.dataplane import Dataplane
from repro.sim.events import Simulator
from repro.sim.flow import FlowQueue
from repro.sim.packet import Packet


def first_arrival_sink(dataplane: Dataplane, flow_id: Hashable):
    """A flow's first packet at a node: classify the flow (which
    caches its engine sink in ``dataplane.sinks``), register its
    :class:`FlowQueue` at the chosen port, and return the sink."""
    port = dataplane.bind_flow(flow_id)
    if port.flow_queue(flow_id) is None:
        port.scheduler.add_flow(FlowQueue(flow_id))
    return port.arrival_sink


class NextHopClassifier(Classifier):
    """Port-of-flow via the routing table: the output port id IS the
    next-hop node name.  The ECMP hash is per-flow constant, as the
    :class:`Classifier` contract asks, so the dataplane's per-flow
    cache asks once per flow."""

    def __init__(self, node: str, routes: RoutingTable,
                 five_tuple_of: Callable[[Hashable], FiveTuple],
                 seed: int = 0) -> None:
        self.node = node
        self.routes = routes
        self.five_tuple_of = five_tuple_of
        self.seed = seed

    def port_of(self, flow_id: Hashable) -> str:
        flow = self.five_tuple_of(flow_id)
        return ecmp_next_hop(self.routes.next_hops(self.node, flow.dst),
                             self.node, flow, seed=self.seed)


class FabricSwitch:
    """One switch of a :class:`~repro.net.fabric.Fabric`."""

    def __init__(self, name: str, sim: Simulator,
                 topology: Topology, routes: RoutingTable,
                 five_tuple_of: Callable[[Hashable], FiveTuple],
                 forward: Callable[[str, Packet], None],
                 algorithm: str = "drr",
                 backend: Optional[str] = None,
                 buffer=None, seed: int = 0,
                 tracer=None, metrics=None,
                 label: bool = True,
                 record_path: bool = True) -> None:
        self.name = name
        self.sim = sim
        self.record_path = record_path
        self.ttl_drops = 0
        self.tracer = labelled(tracer, switch=name) if label else tracer
        switch_metrics = (scoped(metrics, f"switch.{name}")
                          if label and metrics is not None else metrics)
        self.classifier = NextHopClassifier(name, routes, five_tuple_of,
                                            seed=seed)
        self.dataplane = Dataplane(sim, classifier=self.classifier,
                                   buffer=buffer, tracer=self.tracer,
                                   metrics=switch_metrics)
        for neighbor in topology.neighbors(name):
            link = topology.link(name, neighbor)

            def make_scheduler(port_tracer, port_metrics,
                               rate=link.rate_bps):
                return PieoScheduler(make_algorithm(algorithm),
                                     link_rate_bps=rate,
                                     backend=backend,
                                     tracer=port_tracer,
                                     metrics=port_metrics)

            self.dataplane.add_port(
                neighbor, make_scheduler=make_scheduler,
                link_rate_bps=link.rate_bps,
                on_departure=partial(forward, neighbor))

    # -- traffic entry -------------------------------------------------
    def ingest(self, packet: Packet) -> None:
        """One packet arriving at this switch (from a host NIC or a
        previous hop)."""
        if packet.ttl > 0:
            packet.ttl -= 1
            if packet.ttl == 0:
                # Trace an arrival+drop pair so per-switch conservation
                # (arrivals >= delivered + drops) still balances.
                self.ttl_drops += 1
                now = self.sim.now
                if self.tracer is not None:
                    self.tracer.arrival(now, packet.flow_id,
                                        packet.size_bytes,
                                        packet_id=packet.packet_id)
                    self.tracer.drop(now, packet.flow_id,
                                     reason="ttl-expired",
                                     packet_id=packet.packet_id)
                return
        packet.hops += 1
        if self.record_path and packet.path is not None:
            packet.path.append(self.name)
        flow_id = packet.flow_id
        sink = self.dataplane.sinks.get(flow_id)
        if sink is None:
            sink = first_arrival_sink(self.dataplane, flow_id)
        sink(flow_id, packet)

    # -- reporting ------------------------------------------------------
    def conservation(self) -> Dict[str, int]:
        return self.dataplane.conservation()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FabricSwitch({self.name!r})"

"""Fabric: every node of a topology on one shared simulator.

The orchestration layer.  One :class:`~repro.sim.events.Simulator`
clocks every host NIC and switch port (cross-node event order is
globally deterministic — the multi-engine contract of
:mod:`repro.sim.dataplane` at fabric scale); transmissions hand off to
the next hop through each port's ``on_departure`` hook (bound once per
``(node, next hop)`` to :meth:`Fabric._forward`), with delivery posted
one propagation delay after the wire finishes straight to the next
switch's ``ingest`` (or the host's receive).  Each build rejects a
per-switch buffer smaller than one MTU.

Per-switch shared buffers: each switch gets its **own**
:class:`~repro.sim.buffer.BufferManager` (output-queued shared-memory
switches, as in the single-switch incast experiment), so drops are
attributable per node AND per output port.  Hosts are unbuffered —
open-loop sources never drop their own traffic.

Flow identity: :meth:`open_flow` registers a
:class:`~repro.net.routing.FiveTuple` per flow id, pre-walks the ECMP
path (per-flow constant, so the walk is exact), computes the ideal FCT
for the slowdown denominator, and tells the
:class:`~repro.net.fct.FctCollector`.  Flow ids are dot-free
(``h0>h3:n5``) so the analyzer's hierarchy convention never mistakes
them for parent.child nodes.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Dict, Hashable, Optional, Tuple

from repro.errors import ConfigurationError
from repro.net.fct import FctCollector
from repro.net.host import DEFAULT_TTL, Host
from repro.net.routing import (FiveTuple, build_routes, flow_path,
                               ideal_fct_seconds)
from repro.net.switch import FabricSwitch
from repro.net.topology import Topology
from repro.obs.trace import labelled
from repro.sim.buffer import BufferManager
from repro.sim.events import Simulator
from repro.sim.packet import MTU_BYTES, Packet


class Fabric:
    """A running multi-switch network."""

    def __init__(self, topology: Topology,
                 sim: Optional[Simulator] = None, *,
                 algorithm: str = "drr",
                 host_algorithm: Optional[str] = None,
                 backend: Optional[str] = None,
                 buffer_bytes: Optional[int] = None,
                 drop_policy: str = "tail-drop",
                 seed: int = 0, ttl: int = DEFAULT_TTL,
                 record_path: bool = False,
                 collector: Optional[FctCollector] = None,
                 tracer=None, metrics=None) -> None:
        topology.validate()
        if buffer_bytes is not None and buffer_bytes < MTU_BYTES:
            raise ConfigurationError(
                f"buffer_bytes={buffer_bytes} is smaller than one "
                f"{MTU_BYTES} B packet: every full-size packet would be "
                "dropped")
        self.topology = topology
        self.sim = sim if sim is not None else Simulator()
        self.routes = build_routes(topology)
        self.collector = collector if collector is not None \
            else FctCollector()
        self.seed = seed
        self.ttl = ttl
        self.record_path = record_path
        self.flow_table: Dict[Hashable, FiveTuple] = {}
        self._flow_seq = 0
        self.switches: Dict[str, FabricSwitch] = {}
        self.hosts: Dict[str, Host] = {}
        for name in topology.switches:
            buffer = None
            if buffer_bytes is not None:
                buffer = BufferManager(
                    capacity_bytes=buffer_bytes, policy=drop_policy,
                    tracer=labelled(tracer, switch=name),
                    metrics=metrics)
            self.switches[name] = FabricSwitch(
                name, self.sim, topology, self.routes,
                self._five_tuple_of,
                forward=partial(self._forward, name),
                algorithm=algorithm, backend=backend, buffer=buffer,
                seed=seed, tracer=tracer, metrics=metrics,
                record_path=record_path)
        for name in topology.hosts:
            self.hosts[name] = Host(
                name, self.sim, topology,
                forward=partial(self._forward, name),
                algorithm=(host_algorithm if host_algorithm is not None
                           else algorithm),
                backend=backend, tracer=tracer, metrics=metrics)
        #: ``(node, next_node)`` -> ``(propagation delay, deliver)``,
        #: where ``deliver(packet)`` is the next switch's ``ingest`` or
        #: the arrival at a host.
        self._hops: Dict[Tuple[str, str], Tuple[float, Callable]] = {}
        for node in [*self.switches, *self.hosts]:
            for next_node in topology.neighbors(node):
                switch = self.switches.get(next_node)
                deliver = switch.ingest if switch is not None \
                    else partial(self._deliver, next_node)
                self._hops[node, next_node] = (
                    topology.link(node, next_node).delay_s, deliver)

    # -- flow identity --------------------------------------------------
    def _five_tuple_of(self, flow_id: Hashable) -> FiveTuple:
        five = self.flow_table.get(flow_id)
        if five is None:
            raise ConfigurationError(
                f"flow {flow_id!r} has no registered 5-tuple; open it "
                "via Fabric.open_flow / Fabric.stream")
        return five

    def _register(self, src: str, dst: str, sport: int, dport: int,
                  proto: str,
                  flow_id: Optional[Hashable]) -> Hashable:
        if src == dst:
            raise ConfigurationError(
                f"flow source and destination are both {src!r}")
        for endpoint in (src, dst):
            if endpoint not in self.hosts:
                raise ConfigurationError(
                    f"flow endpoint {endpoint!r} is not a host")
        if flow_id is None:
            flow_id = f"{src}>{dst}:n{self._flow_seq}"
        self._flow_seq += 1
        if flow_id in self.flow_table:
            raise ConfigurationError(f"duplicate flow id {flow_id!r}")
        self.flow_table[flow_id] = FiveTuple(src=src, dst=dst,
                                             sport=sport, dport=dport,
                                             proto=proto)
        return flow_id

    # -- traffic --------------------------------------------------------
    def open_flow(self, src: str, dst: str, size_bytes: int,
                  sport: int = 0, dport: int = 0, proto: str = "tcp",
                  flow_id: Optional[Hashable] = None) -> Hashable:
        """Register a sized flow, record its routed path + ideal FCT
        with the collector, and packetize it into the source NIC."""
        flow_id = self._register(src, dst, sport, dport, proto, flow_id)
        path = flow_path(self.topology, self.routes,
                         self.flow_table[flow_id], seed=self.seed)
        ideal = ideal_fct_seconds(self.topology, path, size_bytes,
                                  MTU_BYTES)
        self.collector.flow_started(
            flow_id, src, dst, size_bytes, self.sim.now, ideal,
            path=path, packets=math.ceil(size_bytes / MTU_BYTES))
        self.hosts[src].send_flow(flow_id, dst, size_bytes,
                                  ttl=self.ttl,
                                  record_path=self.record_path)
        return flow_id

    def stream(self, src: str, dst: str, sport: int = 0,
               dport: int = 0, proto: str = "udp",
               flow_id: Optional[Hashable] = None):
        """Register an unsized (generator-driven) flow; returns
        ``(flow_id, sink)`` where ``sink`` plugs into any
        :class:`~repro.sim.generators.PacketGenerator`."""
        flow_id = self._register(src, dst, sport, dport, proto, flow_id)
        sink = self.hosts[src].flow_sink(flow_id, dst, ttl=self.ttl,
                                         record_path=self.record_path)
        return flow_id, sink

    # -- packet movement ------------------------------------------------
    def _forward(self, node: str, next_node: str,
                 packet: Packet) -> None:
        """A packet finished serializing out of ``node`` toward
        ``next_node``: account residence, then deliver one propagation
        delay later."""
        finish = packet.departure_time
        self.collector.note_residence(node, finish - packet.arrival_time)
        delay, deliver = self._hops[node, next_node]
        self.sim.post(finish + delay, partial(deliver, packet))

    def _deliver(self, node: str, packet: Packet) -> None:
        """A packet reached host ``node``."""
        if packet.dst != node:
            raise ConfigurationError(
                f"packet for {packet.dst!r} delivered to host "
                f"{node!r}: routing is broken")
        if self.record_path and packet.path is not None:
            packet.path.append(node)
        self.hosts[node].receive(packet)
        self.collector.packet_delivered(packet, self.sim.now)

    # -- running / reporting -------------------------------------------
    def run_until(self, end_time: float) -> None:
        self.sim.run_until(end_time)

    def ttl_drops(self) -> int:
        return sum(switch.ttl_drops
                   for switch in self.switches.values())

    def conservation(self) -> Dict[str, object]:
        """Fabric-wide per-hop conservation: summed over every node's
        dataplane (a packet is counted once per hop it enters), plus
        TTL drops.  ``balanced`` requires every node to balance."""
        totals = {"arrivals": 0, "departures": 0, "drops": 0,
                  "residue": 0}
        balanced = True
        nodes: Dict[str, Dict[str, int]] = {}
        everything = list(self.hosts.items()) \
            + list(self.switches.items())
        for name, node in everything:
            snapshot = node.conservation()
            nodes[name] = snapshot
            for key in totals:
                totals[key] += snapshot[key]
            balanced = balanced and snapshot["balanced"]
        totals["ttl_drops"] = self.ttl_drops()
        totals["balanced"] = balanced
        totals["nodes"] = nodes
        return totals

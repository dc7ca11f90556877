"""Single-node equivalence: a one-switch repro.net node is
bit-identical to a bare Dataplane built from the same pieces.

The fabric switch is supposed to be the single-switch stack *verbatim*
plus routing — so running the same arrival program through a
``FabricSwitch`` and through a hand-wired ``Dataplane`` +
``StaticClassifier`` must produce exactly the same recorder output
(times, flow ids, sizes, packet ids), not merely the same statistics.
"""

from repro.net.routing import FiveTuple, build_routes
from repro.net.switch import FabricSwitch
from repro.net.topology import Topology
from repro.sched.framework import PieoScheduler
from repro.sched.registry import make_algorithm
from repro.sim.classifier import StaticClassifier
from repro.sim.dataplane import Dataplane
from repro.sim.events import Simulator
from repro.sim.flow import FlowQueue
from repro.sim.link import gbps
from repro.sim.packet import MTU_BYTES, Packet, reset_packet_ids

RATE = gbps(10)
FLOWS = ("fa", "fb", "fc")
PACKETS_PER_FLOW = 20
GAP = MTU_BYTES * 8 / RATE / 2  # 2x oversubscribed: real queueing


def _topology():
    topo = Topology()
    topo.add_host("a")
    topo.add_host("b")
    topo.add_switch("s0")
    topo.add_link("a", "s0", rate_bps=RATE, delay_s=0.0)
    topo.add_link("s0", "b", rate_bps=RATE, delay_s=0.0)
    return topo


def _arrival_program(sim, deliver):
    """Schedule the shared arrival pattern: three flows interleaved at
    2x the egress line rate."""
    for index in range(PACKETS_PER_FLOW):
        for offset, flow_id in enumerate(FLOWS):
            time = index * len(FLOWS) * GAP + offset * GAP
            packet = Packet(flow_id, size_bytes=MTU_BYTES,
                            arrival_time=time, dst="b", ttl=0)
            sim.schedule(time,
                         lambda f=flow_id, p=packet: deliver(f, p))


def _run_fabric_switch():
    reset_packet_ids(0)
    topo = _topology()
    routes = build_routes(topo)
    sim = Simulator()
    tuples = {flow_id: FiveTuple(src="a", dst="b", sport=index,
                                 dport=80)
              for index, flow_id in enumerate(FLOWS)}
    delivered = []
    switch = FabricSwitch(
        "s0", sim, topo, routes, tuples.__getitem__,
        forward=lambda hop, packet: delivered.append((hop, packet)),
        algorithm="drr")
    _arrival_program(sim, lambda _fid, packet: switch.ingest(packet))
    sim.run()
    return switch.dataplane, delivered


def _run_bare_dataplane():
    reset_packet_ids(0)
    topo = _topology()
    sim = Simulator()
    dataplane = Dataplane(
        sim, classifier=StaticClassifier(
            {flow_id: "b" for flow_id in FLOWS}))
    for neighbor in topo.neighbors("s0"):
        rate = topo.link("s0", neighbor).rate_bps

        def make_scheduler(tracer, metrics, rate=rate):
            return PieoScheduler(make_algorithm("drr"),
                                 link_rate_bps=rate, tracer=tracer,
                                 metrics=metrics)

        dataplane.add_port(neighbor, make_scheduler=make_scheduler,
                           link_rate_bps=rate)

    def deliver(flow_id, packet):
        port = dataplane.ports["b"]
        if flow_id not in port.scheduler.flows:
            port.scheduler.add_flow(FlowQueue(flow_id))
        dataplane.arrival_sink(flow_id, packet)

    _arrival_program(sim, deliver)
    sim.run()
    return dataplane


def test_fabric_switch_matches_bare_dataplane_bit_for_bit():
    fabric_plane, delivered = _run_fabric_switch()
    bare_plane = _run_bare_dataplane()
    fabric_out = fabric_plane.ports["b"].recorder.departures
    bare_out = bare_plane.ports["b"].recorder.departures
    assert len(fabric_out) == len(FLOWS) * PACKETS_PER_FLOW
    # Exact equality: same departure times, same flow interleaving,
    # same packet ids, same sizes.
    assert fabric_out == bare_out
    # The forward hook saw every transmitted packet, toward "b".
    assert len(delivered) == len(fabric_out)
    assert all(hop == "b" for hop, _ in delivered)


def test_conservation_snapshots_match():
    fabric_plane, _ = _run_fabric_switch()
    bare_plane = _run_bare_dataplane()
    assert fabric_plane.conservation() == bare_plane.conservation()

"""Long randomized soak: every subsystem at once.

A hierarchical scheduler on the cycle-accurate hardware lists, mixed
traffic (backlogged + Poisson + on-off), runtime control-plane rate
changes, and network-feedback pauses/resumes — run for a long simulated
interval with hardware self-checking enabled throughout.  The test
asserts global sanity, not exact numbers: no crash, no invariant
violation, no per-flow reordering, no byte leaks, shaping respected in
aggregate."""

import random

import pytest

from repro.core.pieo import PieoHardwareList
from repro.sched import (FeedbackChannel, HierarchicalScheduler,
                         TokenBucket, WF2Qplus, two_level_tree)
from repro.sim import (BackloggedSource, Link, OnOffGenerator,
                       PoissonGenerator, Simulator, TransmitEngine, gbps)

DURATION = 0.05


@pytest.mark.slow
def test_soak_hierarchy_on_hardware_lists():
    rng = random.Random(2026)
    sim = Simulator()
    link = Link(gbps(40))
    node_rates = [gbps(rng.uniform(0.5, 5.0)) for _ in range(6)]
    root, leaves = two_level_tree(
        TokenBucket(), [WF2Qplus() for _ in node_rates],
        flows_per_node=5, node_rate_bps=node_rates)
    scheduler = HierarchicalScheduler(
        root, link_rate_bps=link.rate_bps,
        list_factory=lambda _cap: PieoHardwareList(128, self_check=True))
    engine = TransmitEngine(sim, scheduler, link)

    for index, flow in enumerate(leaves):
        kind = index % 3
        if kind == 0:
            source = BackloggedSource(sim, flow.flow_id,
                                      engine.arrival_sink, depth=2)
            engine.add_departure_listener(flow.flow_id,
                                          source.on_departure)
            source.start(0.0)
        elif kind == 1:
            PoissonGenerator(sim, flow.flow_id, engine.arrival_sink,
                             rate_bps=gbps(0.4),
                             rng=random.Random(index),
                             end_time=DURATION * 0.9).start(0.0)
        else:
            OnOffGenerator(sim, flow.flow_id, engine.arrival_sink,
                           peak_rate_bps=gbps(1.0), on_seconds=2e-3,
                           off_seconds=2e-3, rng=random.Random(index),
                           end_time=DURATION * 0.9).start(0.0)

    # Random mid-run node rate changes (applied directly to node state;
    # Token Bucket reads flow.rate_bps at every head-of-line charge).
    def shake():
        node = root.children[f"n{rng.randrange(len(node_rates))}"]
        node.rate_bps = gbps(rng.uniform(0.5, 5.0))
        if sim.now + 5e-3 < DURATION:
            sim.schedule_in(5e-3, shake)

    # Network feedback (Section 4.4): every 7 ms one random leaf is
    # paused through its node's scheduler, which shares its level's
    # PIEO with the other nodes, and resumed 4 ms later.
    feedback_rng = random.Random(7)
    channels = {node_id: FeedbackChannel(sim, node.scheduler, engine=engine)
                for node_id, node in root.children.items()}
    pauses = []

    def quench():
        node_id = f"n{feedback_rng.randrange(len(node_rates))}"
        flow_id = feedback_rng.choice(sorted(root.children[node_id].children))
        channel = channels[node_id]
        channel.pause(flow_id)
        sim.schedule_in(4e-3, lambda: channel.resume(flow_id))
        pauses.append((flow_id, sim.now, sim.now + 4e-3))
        if sim.now + 11e-3 < DURATION:
            sim.schedule_in(7e-3, quench)

    sim.schedule(10e-3, shake)
    sim.schedule(5e-3, quench)
    sim.run_until(DURATION)

    # Hardware invariants held throughout (self_check) — now the global
    # properties:
    departures = engine.recorder.departures
    assert len(departures) > 1000
    last_packet = {}
    for departure in departures:
        assert departure.time <= DURATION
        previous = last_packet.get(departure.flow_id, -1)
        assert departure.packet_id > previous
        last_packet[departure.flow_id] = departure.packet_id
    for flow in leaves:
        sent = sum(d.size_bytes for d in departures
                   if d.flow_id == flow.flow_id)
        assert sent == flow.bytes_dequeued
        assert flow.bytes_enqueued == flow.bytes_dequeued + \
            flow.backlog_bytes
    # Aggregate throughput can never exceed the link rate.
    total_bits = sum(d.size_bytes for d in departures) * 8
    assert total_bits <= link.rate_bps * DURATION * 1.001
    for physical in scheduler.level_lists:
        physical.check()
    # A paused flow sends nothing once the packet on the wire is out.
    assert len(pauses) >= 5
    assert sum(len(channel.log) for channel in channels.values()) == \
        2 * len(pauses)
    for flow_id, start, end in pauses:
        assert not [d for d in departures if d.flow_id == flow_id
                    and start + 1e-6 < d.time < end]

"""Cost and scope of the scheduler's start-time heap (WF2Q+ virtual time).

* The work per scheduling decision does not grow with the number of
  backlogged flows: Python and C calls per decision, counted exactly
  under ``sys.setprofile``, are the same at 64 and at 4096 flows.
* Stale entries cannot pile up: under churn the heap stays within
  ``2 * len(flows) + START_HEAP_SLACK`` entries.
* The heap belongs to the scheduler, not to the algorithm instance: one
  ``WF2Qplus`` shared by two ports departs exactly like two instances.
"""

from __future__ import annotations

import random
import sys

from repro.sched import PieoScheduler, WF2Qplus
from repro.sim.engine import TransmitEngine
from repro.sim.events import Simulator
from repro.sim.flow import FlowQueue
from repro.sim.generators import BackloggedSource
from repro.sim.link import Link, gbps
from repro.sim.packet import Packet, reset_packet_ids


def _calls_per_decision(num_flows, warmup=32, measured=64):
    """Calls (Python frames and C builtins) made by each of ``measured``
    decisions of a flat WF2Q+ scheduler with every flow backlogged."""
    scheduler = PieoScheduler(WF2Qplus(), link_rate_bps=40e9)
    for index in range(num_flows):
        scheduler.add_flow(FlowQueue(index))
        scheduler.on_arrival(index, Packet(index), 0.0)
        scheduler.on_arrival(index, Packet(index), 0.0)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    per_decision = []
    for decision in range(warmup + measured):
        now = decision * 1e-6
        calls = 0
        sys.setprofile(count)
        packets = scheduler.schedule(now)
        sys.setprofile(None)
        assert len(packets) == 1
        # Refill outside the count, so every flow stays backlogged.
        scheduler.on_arrival(packets[0].flow_id,
                             Packet(packets[0].flow_id), now)
        if decision >= warmup:
            per_decision.append(calls)
    return per_decision


def test_calls_per_decision_do_not_grow_with_flows():
    small = _calls_per_decision(64)
    large = _calls_per_decision(4096)
    assert small == large


def test_start_heap_stays_bounded_under_churn():
    rng = random.Random(7)
    scheduler = PieoScheduler(WF2Qplus(), link_rate_bps=1e9)
    # Heavy flows advance their start times in tiny steps while a light
    # flow holds the minimum, which leaves stale entries behind.
    for index in range(16):
        scheduler.add_flow(FlowQueue(index, weight=64.0 if index % 2
                                     else 1.0))
    bound = 2 * len(scheduler.flows) + PieoScheduler.START_HEAP_SLACK
    peak = idle_returns = 0
    now = 0.0
    for _ in range(300):
        # Bursts into most flows, then as many decisions as packets
        # arrived, so flows keep going idle and coming back.
        arrived = 0
        for flow_id in range(16):
            if rng.random() < 0.7:
                idle_returns += scheduler.flows[flow_id].is_empty
                burst = rng.choice((1, 4, 8))
                arrived += burst
                for _ in range(burst):
                    scheduler.on_arrival(flow_id, Packet(
                        flow_id, size_bytes=rng.choice((64, 1500))), now)
        for _ in range(arrived):
            now += 1e-6
            scheduler.schedule(now)
            peak = max(peak, len(scheduler._start_heap))
    assert idle_returns > 1000
    assert peak <= bound


def _two_ports(algorithms):
    """Two WF2Q+ ports on one simulator; flows start and stop at
    staggered times so each port's virtual-time floor matters."""
    reset_packet_ids(0)
    sim = Simulator()
    recorders = []
    for port, algorithm in enumerate(algorithms):
        link = Link(gbps(10.0))
        scheduler = PieoScheduler(algorithm, link_rate_bps=link.rate_bps)
        engine = TransmitEngine(sim, scheduler, link)
        for index in range(4 + 2 * port):
            flow = scheduler.add_flow(FlowQueue(
                f"p{port}.f{index}", weight=(1.0, 2.0, 4.0)[index % 3]))
            source = BackloggedSource(
                sim, flow.flow_id, engine.arrival_sink, depth=2,
                size_bytes=(1500, 700, 64)[(index + port) % 3],
                end_time=2e-4 * (index + 1))
            engine.add_departure_listener(flow.flow_id, source.on_departure)
            source.start(3e-5 * index * (port + 1))
        recorders.append(engine.recorder)
    sim.run_until(2e-3)
    return [list(recorder.departures) for recorder in recorders]


def test_shared_instance_departs_like_separate_instances():
    shared = WF2Qplus()
    together = _two_ports([shared, shared])
    apart = _two_ports([WF2Qplus(), WF2Qplus()])
    assert all(together)
    assert together == apart

"""Tests for time-slotted (TDMA) scheduling — the precise-transmission
use case from the paper's introduction."""

import pytest

from repro.errors import ConfigurationError
from repro.sched import PieoScheduler, TimeSlotted
from repro.sim import (BackloggedSource, FlowQueue, Link, Packet, Simulator,
                       TransmitEngine, gbps)

SLOT = 10e-6
FRAME_SLOTS = 4


def make_scheduler():
    scheduler = PieoScheduler(TimeSlotted(SLOT, FRAME_SLOTS),
                              link_rate_bps=gbps(10))
    for slot in range(3):
        flow = scheduler.add_flow(FlowQueue(f"s{slot}"))
        flow.state["slot"] = slot
    return scheduler


def test_next_slot_time_math():
    algorithm = TimeSlotted(SLOT, FRAME_SLOTS)
    flow = FlowQueue("f")
    flow.state["slot"] = 2
    assert algorithm.next_slot_time(flow, 0.0) == pytest.approx(2 * SLOT)
    assert algorithm.next_slot_time(flow, 2 * SLOT) == pytest.approx(
        2 * SLOT)  # boundary is inclusive
    assert algorithm.next_slot_time(flow, 2.1 * SLOT) == pytest.approx(
        2 * SLOT + FRAME_SLOTS * SLOT)


def test_one_opportunity_per_frame():
    algorithm = TimeSlotted(SLOT, FRAME_SLOTS)
    flow = FlowQueue("f")
    flow.state["slot"] = 1
    first = algorithm.next_slot_time(flow, 0.0)
    flow.state["last_slot_time"] = first
    second = algorithm.next_slot_time(flow, first)
    assert second == pytest.approx(first + FRAME_SLOTS * SLOT)


def test_validation():
    with pytest.raises(ConfigurationError):
        TimeSlotted(0, 4)
    with pytest.raises(ConfigurationError):
        TimeSlotted(1e-6, 0)
    algorithm = TimeSlotted(SLOT, 2)
    flow = FlowQueue("f")
    flow.state["slot"] = 7
    with pytest.raises(ConfigurationError):
        algorithm.slot_of(flow)


def test_departures_hit_slot_boundaries_exactly():
    """The precision claim: every packet leaves exactly at its flow's
    slot boundary (the link is idle when the slot opens)."""
    sim = Simulator()
    link = Link(gbps(10))
    scheduler = PieoScheduler(TimeSlotted(SLOT, FRAME_SLOTS),
                              link_rate_bps=link.rate_bps)
    engine = TransmitEngine(sim, scheduler, link)
    for slot in range(3):
        flow = scheduler.add_flow(FlowQueue(f"s{slot}"))
        flow.state["slot"] = slot
        source = BackloggedSource(sim, flow.flow_id, engine.arrival_sink,
                                  depth=2, size_bytes=1500)
        engine.add_departure_listener(flow.flow_id, source.on_departure)
        source.start(0.0)
    sim.run_until(1e-3)
    assert len(engine.recorder) >= 3 * (1e-3 / (FRAME_SLOTS * SLOT)) - 3
    for departure in engine.recorder.departures:
        slot_index = int(departure.flow_id[1:])
        offset = (departure.time - slot_index * SLOT) % (
            FRAME_SLOTS * SLOT)
        jitter = min(offset, FRAME_SLOTS * SLOT - offset)
        assert jitter < 1e-12, (departure, jitter)


def test_slots_do_not_collide():
    """At most one transmission starts per slot; owners match slots."""
    sim = Simulator()
    link = Link(gbps(10))
    scheduler = PieoScheduler(TimeSlotted(SLOT, FRAME_SLOTS),
                              link_rate_bps=link.rate_bps)
    engine = TransmitEngine(sim, scheduler, link)
    for slot in range(FRAME_SLOTS):
        flow = scheduler.add_flow(FlowQueue(f"s{slot}"))
        flow.state["slot"] = slot
        source = BackloggedSource(sim, flow.flow_id, engine.arrival_sink,
                                  depth=2, size_bytes=1500)
        engine.add_departure_listener(flow.flow_id, source.on_departure)
        source.start(0.0)
    sim.run_until(1e-3)
    seen_slots = set()
    for departure in engine.recorder.departures:
        global_slot = round(departure.time / SLOT)
        assert global_slot not in seen_slots
        seen_slots.add(global_slot)
        assert global_slot % FRAME_SLOTS == int(departure.flow_id[1:])


def test_idle_slots_leave_link_idle():
    """Non-work-conserving: an unowned slot stays silent even with
    backlog elsewhere."""
    sim = Simulator()
    link = Link(gbps(10))
    scheduler = PieoScheduler(TimeSlotted(SLOT, FRAME_SLOTS),
                              link_rate_bps=link.rate_bps)
    engine = TransmitEngine(sim, scheduler, link)
    flow = scheduler.add_flow(FlowQueue("s0"))
    flow.state["slot"] = 0
    source = BackloggedSource(sim, "s0", engine.arrival_sink, depth=4,
                              size_bytes=1500)
    engine.add_departure_listener("s0", source.on_departure)
    source.start(0.0)
    sim.run_until(1e-3)
    # One 1.2 us packet per 40 us frame = 3% utilization.
    assert link.busy_time / 1e-3 < 0.05


def test_late_arrival_waits_for_next_owned_slot():
    sim = Simulator()
    link = Link(gbps(10))
    scheduler = PieoScheduler(TimeSlotted(SLOT, FRAME_SLOTS),
                              link_rate_bps=link.rate_bps)
    engine = TransmitEngine(sim, scheduler, link)
    flow = scheduler.add_flow(FlowQueue("s1"))
    flow.state["slot"] = 1
    # Arrive just after slot 1 opened: must wait one full frame.
    sim.schedule(SLOT * 1.5,
                 lambda: engine.arrival_sink("s1", Packet("s1")))
    sim.run_until(1e-3)
    departure = engine.recorder.departures[0]
    assert departure.time == pytest.approx(SLOT + FRAME_SLOTS * SLOT)

"""Tests for the transmit engine, with a FIFO scheduler (the simplest
engine-compatible scheduler) and a shaping scheduler for retry timers."""

import pytest

from repro.baselines.fifo import FifoScheduler
from repro.obs import MetricsRegistry
from repro.sched import PieoScheduler, TokenBucket
from repro.sim import (FlowQueue, Link, Packet, Simulator, TransmitEngine,
                       gbps)
from repro.sim.packet import reset_packet_ids


def test_engine_serializes_packets_on_link():
    sim = Simulator()
    link = Link(gbps(1))  # 1500 B -> 12 us each
    engine = TransmitEngine(sim, FifoScheduler(), link)
    for index in range(3):
        engine.arrival_sink("f", Packet("f"))
    sim.run_until(1.0)
    departures = engine.recorder.departures
    assert len(departures) == 3
    times = [departure.time for departure in departures]
    assert times[1] - times[0] == pytest.approx(1500 * 8 / 1e9)
    assert times[2] - times[1] == pytest.approx(1500 * 8 / 1e9)


def test_engine_records_fifo_order():
    sim = Simulator()
    engine = TransmitEngine(sim, FifoScheduler(), Link(gbps(1)))
    engine.arrival_sink("a", Packet("a"))
    engine.arrival_sink("b", Packet("b"))
    sim.run_until(1.0)
    assert engine.recorder.order() == ["a", "b"]


def test_engine_stays_quiet_with_no_arrivals():
    sim = Simulator()
    engine = TransmitEngine(sim, FifoScheduler(), Link(gbps(1)))
    sim.run_until(1.0)
    assert len(engine.recorder) == 0
    assert sim.events_fired == 0


def _shaped_pair(metrics=None):
    """A lone token-bucket flow holding two packets: the first rides
    the initial burst allowance, the second must wait a full token
    refill (1 Mbps -> 12 ms per MTU)."""
    reset_packet_ids()
    sim = Simulator()
    link = Link(gbps(10))
    scheduler = PieoScheduler(TokenBucket(default_burst_bytes=1500),
                              link_rate_bps=link.rate_bps)
    scheduler.add_flow(FlowQueue("f", rate_bps=1e6))
    engine = TransmitEngine(sim, scheduler, link, metrics=metrics)
    engine.arrival_sink("f", Packet("f"))
    engine.arrival_sink("f", Packet("f"))
    return sim, engine


def test_engine_arms_retry_for_shaped_traffic():
    """Non-work-conserving path: a lone ineligible flow must be retried
    at its send time, not spin.  Metering keeps the engine on its
    event-driven loop, where the wait is a retry timer."""
    sim, engine = _shaped_pair(metrics=MetricsRegistry())
    assert not engine.drain_enabled
    sim.run_until(0.1)
    departures = engine.recorder.departures
    assert len(departures) == 2
    gap = departures[1].time - departures[0].time
    assert gap == pytest.approx(1500 * 8 / 1e6, rel=0.01)
    assert engine.metrics.counter("engine.retry_arms").value == 1
    # The event count must stay tiny (timer-driven, not polling).
    assert sim.events_fired < 25


def test_drain_crosses_the_shaping_gap_without_a_timer():
    """The unobserved twin of the test above: the drain advances the
    clock to the send time itself, so no retry timer is scheduled and
    the same two departures happen."""
    sim, engine = _shaped_pair()
    assert engine.drain_enabled
    scheduled = []
    schedule = sim.schedule

    def counted(time, callback):
        scheduled.append(time)
        return schedule(time, callback)

    sim.schedule = counted
    sim.run_until(0.1)
    reference, metered = _shaped_pair(metrics=MetricsRegistry())
    reference.run_until(0.1)
    assert engine.recorder.departures == metered.recorder.departures
    assert len(engine.recorder.departures) == 2
    assert scheduled == []
    assert sim.events_fired < 25


def test_departure_listener_fires_at_finish_time():
    sim = Simulator()
    link = Link(gbps(1))
    engine = TransmitEngine(sim, FifoScheduler(), link)
    fired = []
    engine.add_departure_listener("f", lambda: fired.append(sim.now))
    engine.arrival_sink("f", Packet("f"))
    sim.run_until(1.0)
    assert fired == [pytest.approx(1500 * 8 / 1e9)]


def test_packet_departure_time_stamped():
    sim = Simulator()
    engine = TransmitEngine(sim, FifoScheduler(), Link(gbps(1)))
    packet = Packet("f")
    engine.arrival_sink("f", packet)
    sim.run_until(1.0)
    assert packet.departure_time == pytest.approx(1500 * 8 / 1e9)


def test_link_never_overcommitted():
    """Aggregate throughput can never exceed link rate."""
    sim = Simulator()
    link = Link(gbps(1))
    engine = TransmitEngine(sim, FifoScheduler(), link)
    for index in range(100):
        engine.arrival_sink("f", Packet("f"))
    sim.run_until(0.01)
    elapsed = engine.recorder.departures[-1].time
    achieved = engine.recorder.aggregate_rate_bps(0.0, elapsed + 12e-6)
    assert achieved <= 1e9 * 1.001


def test_transmit_batch_cancels_armed_retry():
    """Contract: a transmission retires any armed retry timer.  A stale
    wakeup surviving a batch would double-kick the scheduler."""
    sim = Simulator()
    engine = TransmitEngine(sim, FifoScheduler(), Link(gbps(1)))
    stale = sim.schedule(0.5, engine.kick)
    engine._retry_handle = stale
    engine._transmit_batch([Packet("f")], sim.now)
    assert stale.cancelled
    assert engine._retry_handle is None


def test_retry_handle_cleared_after_natural_fire():
    """Once the retry timer fires it is spent: the engine must drop the
    handle so a later cancel() cannot hit a dead event while a fresh
    timer goes untracked."""
    sim = Simulator()
    link = Link(gbps(10))
    scheduler = PieoScheduler(TokenBucket(default_burst_bytes=1500),
                              link_rate_bps=link.rate_bps)
    scheduler.add_flow(FlowQueue("f", rate_bps=1e6))
    engine = TransmitEngine(sim, scheduler, link)
    engine.arrival_sink("f", Packet("f"))
    engine.arrival_sink("f", Packet("f"))  # waits a 12 ms token refill
    sim.run_until(0.005)
    assert engine._retry_handle is not None  # armed for the refill
    sim.run_until(0.1)
    assert engine._retry_handle is None  # fired, transmitted, cleared
    assert len(engine.recorder) == 2


def test_stale_retry_does_not_double_probe_scheduler():
    """An arrival landing while a retry is armed must not leave the old
    timer around to probe schedule() a second time at the stale instant."""
    sim = Simulator()
    link = Link(gbps(10))
    scheduler = PieoScheduler(TokenBucket(default_burst_bytes=1500),
                              link_rate_bps=link.rate_bps)
    scheduler.add_flow(FlowQueue("slow", rate_bps=1e6))
    scheduler.add_flow(FlowQueue("burst", rate_bps=1e9))
    probes = []
    original = scheduler.schedule

    def counting_schedule(now):
        probes.append(now)
        return original(now)

    scheduler.schedule = counting_schedule
    engine = TransmitEngine(sim, scheduler, link)
    engine.arrival_sink("slow", Packet("slow"))
    engine.arrival_sink("slow", Packet("slow"))  # arms a ~12 ms retry
    sim.run_until(0.005)
    assert engine._retry_handle is not None
    stale = engine._retry_handle
    engine.arrival_sink("burst", Packet("burst"))  # transmits immediately
    sim.run_until(0.1)
    assert stale.cancelled  # batch retired the stale timer
    assert len(engine.recorder) == 3
    # Each probe instant appears once: no double-kick at the stale time.
    assert len(probes) == len(set(probes))

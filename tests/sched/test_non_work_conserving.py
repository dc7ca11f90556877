"""End-to-end tests for the non-work-conserving algorithms
(Section 4.2): Token Bucket and RCSP."""

import pytest

from repro.core.pieo import PieoHardwareList
from repro.sched import (PieoScheduler, RateControlledStaticPriority,
                         RateJitterRegulator, TokenBucket)
from repro.sim import (FlowQueue, Link, Packet, Simulator, TransmitEngine,
                       gbps)
from repro.sim.packet import MTU_BYTES

from tests.scenarios import FlatRun

MEASURE_START = 0.005
DURATION = 0.05


def shaped_run(limits_gbps, ordered_list=None, link_gbps=10.0):
    run = FlatRun(TokenBucket(), link_gbps=link_gbps,
                  ordered_list=ordered_list)
    for name, limit in limits_gbps.items():
        run.add_backlogged_flow(FlowQueue(name, rate_bps=gbps(limit)))
    run.run(DURATION)
    return run.rates(start=MEASURE_START, end=DURATION, in_gbps=True)


# ---------------------------------------------------------------------
# Token Bucket
# ---------------------------------------------------------------------
def test_token_bucket_enforces_single_rate():
    rates = shaped_run({"f": 1.0})
    assert rates["f"] == pytest.approx(1.0, rel=0.02)


def test_token_bucket_enforces_many_rates():
    limits = {"a": 0.5, "b": 1.0, "c": 2.0, "d": 4.0}
    rates = shaped_run(limits)
    for name, limit in limits.items():
        assert rates[name] == pytest.approx(limit, rel=0.02), name


def test_token_bucket_leaves_link_idle():
    """Non-work-conserving: the link idles even with backlog."""
    run = FlatRun(TokenBucket(), link_gbps=10.0)
    run.add_backlogged_flow(FlowQueue("f", rate_bps=gbps(1)))
    run.run(DURATION)
    assert run.link.utilization(DURATION) < 0.15


def test_token_bucket_on_hardware_list():
    rates = shaped_run({"a": 1.0, "b": 2.0},
                       ordered_list=PieoHardwareList(32, self_check=True))
    assert rates["a"] == pytest.approx(1.0, rel=0.02)
    assert rates["b"] == pytest.approx(2.0, rel=0.02)


def test_token_bucket_paces_interdeparture_gaps():
    """Packet pacing: steady-state gaps equal packet_time = L/rate."""
    run = FlatRun(TokenBucket(default_burst_bytes=MTU_BYTES),
                  link_gbps=10.0)
    run.add_backlogged_flow(FlowQueue("f", rate_bps=gbps(1)))
    run.run(DURATION)
    gaps = run.engine.recorder.interdeparture_times("f")
    steady = gaps[5:]
    expected = MTU_BYTES * 8 / gbps(1)
    assert all(gap == pytest.approx(expected, rel=0.01) for gap in steady)


def test_token_bucket_burst_allowance():
    """A long-idle flow may burst up to its bucket depth at line rate."""
    sim = Simulator()
    link = Link(gbps(10))
    scheduler = PieoScheduler(
        TokenBucket(default_burst_bytes=3 * MTU_BYTES),
        link_rate_bps=link.rate_bps)
    scheduler.add_flow(FlowQueue("f", rate_bps=gbps(0.1)))
    engine = TransmitEngine(sim, scheduler, link)
    for _ in range(4):
        engine.arrival_sink("f", Packet("f"))
    sim.run_until(1.0)
    departures = engine.recorder.departures
    assert len(departures) == 4
    line_gap = MTU_BYTES * 8 / gbps(10)
    # First three ride the burst at line rate; the fourth waits ~120 us.
    assert (departures[1].time - departures[0].time
            == pytest.approx(line_gap, rel=0.01))
    assert (departures[2].time - departures[1].time
            == pytest.approx(line_gap, rel=0.01))
    assert (departures[3].time - departures[2].time
            > 50 * line_gap)


def test_token_bucket_requires_rate():
    scheduler = PieoScheduler(TokenBucket())
    scheduler.add_flow(FlowQueue("f"))  # no rate_bps
    with pytest.raises(ValueError):
        scheduler.on_arrival("f", Packet("f"), 0.0)


def test_token_bucket_validation():
    with pytest.raises(ValueError):
        TokenBucket(default_burst_bytes=0)


def test_aggregate_cannot_exceed_link():
    """Shapers summing over the link rate degrade to link sharing, never
    overcommit."""
    rates = shaped_run({"a": 8.0, "b": 8.0}, link_gbps=10.0)
    assert rates["a"] + rates["b"] <= 10.0 * 1.001


# ---------------------------------------------------------------------
# RCSP
# ---------------------------------------------------------------------
def test_rcsp_priority_order_among_eligible():
    sim = Simulator()
    link = Link(gbps(10))
    scheduler = PieoScheduler(RateControlledStaticPriority(),
                              link_rate_bps=link.rate_bps)
    high = scheduler.add_flow(FlowQueue("high", priority=0))
    low = scheduler.add_flow(FlowQueue("low", priority=5))
    engine = TransmitEngine(sim, scheduler, link)
    # Both eligible immediately: high priority must go first even though
    # low arrived first.
    engine.arrival_sink("low", Packet("low"))
    engine.arrival_sink("high", Packet("high"))
    sim.run_until(1.0)
    assert engine.recorder.order() == ["high", "low"]
    assert high.is_empty and low.is_empty


def test_rcsp_defers_ineligible_high_priority():
    """The rate controller can hold back a high-priority packet; lower
    priority eligible traffic goes first (shaped, not starved)."""
    sim = Simulator()
    link = Link(gbps(10))
    scheduler = PieoScheduler(RateControlledStaticPriority(),
                              link_rate_bps=link.rate_bps)
    scheduler.add_flow(FlowQueue("high", priority=0))
    scheduler.add_flow(FlowQueue("low", priority=5))
    engine = TransmitEngine(sim, scheduler, link)
    held = Packet("high")
    held.eligible_time = 1e-3
    engine.arrival_sink("high", held)
    engine.arrival_sink("low", Packet("low"))
    sim.run_until(1.0)
    departures = engine.recorder.departures
    assert [d.flow_id for d in departures] == ["low", "high"]
    assert departures[1].time == pytest.approx(1e-3, abs=1e-5)


def test_rate_jitter_regulator_spacing():
    regulator = RateJitterRegulator()
    flow = FlowQueue("f", rate_bps=12e6)  # MTU per ms
    first = Packet("f", arrival_time=0.0)
    burst = Packet("f", arrival_time=0.0)
    later = Packet("f", arrival_time=0.01)
    for packet in (first, burst, later):
        regulator.regulate(flow, packet)
    assert first.eligible_time == 0.0
    assert burst.eligible_time == pytest.approx(1e-3)
    assert later.eligible_time == pytest.approx(0.01)


def test_rate_jitter_regulator_unshaped_flow():
    regulator = RateJitterRegulator()
    flow = FlowQueue("f")  # rate 0 -> no shaping
    packet = Packet("f", arrival_time=3.0)
    regulator.regulate(flow, packet)
    assert packet.eligible_time == 3.0


def test_rcsp_end_to_end_shaping():
    """Regulator + RCSP: per-flow packet rate enforced at the scheduler."""
    sim = Simulator()
    link = Link(gbps(10))
    scheduler = PieoScheduler(RateControlledStaticPriority(),
                              link_rate_bps=link.rate_bps)
    flow = scheduler.add_flow(FlowQueue("f", rate_bps=gbps(1),
                                        priority=1))
    engine = TransmitEngine(sim, scheduler, link)
    regulator = RateJitterRegulator()

    def regulated_sink(flow_id, packet):
        regulator.regulate(flow, packet)
        engine.arrival_sink(flow_id, packet)

    for _ in range(20):
        regulated_sink("f", Packet("f", arrival_time=0.0))
    sim.run_until(1.0)
    gaps = engine.recorder.interdeparture_times("f")
    expected = MTU_BYTES * 8 / gbps(1)
    assert all(gap == pytest.approx(expected, rel=0.01)
               for gap in gaps[1:])


@pytest.mark.parametrize("pause_at, eligible_at", [(1.0, 1.0), (2.0, 1.4)])
def test_paused_flow_dequeue_names_when_it_became_eligible(pause_at,
                                                           eligible_at):
    """A flow pulled out by pause_flow gets the same eligible_at as a
    scheduled dequeue: its wall-clock send time, clamped to the pause."""
    from repro.obs import MetricsRegistry, Tracer

    tracer = Tracer()
    metrics = MetricsRegistry()
    scheduler = PieoScheduler(TokenBucket(), link_rate_bps=gbps(10),
                              tracer=tracer, metrics=metrics)
    flow = FlowQueue("f", rate_bps=8_000)
    flow.state["burst_bytes"] = 100
    scheduler.add_flow(flow)
    # 100 tokens at 1000 B/s: a 1500 B head may leave at t = 1.4.
    scheduler.on_arrival("f", Packet("f", size_bytes=1500), now=0.0)
    scheduler.pause_flow("f", now=pause_at)
    (dequeue,) = tracer.events_of("dequeue")
    assert dequeue.time == pause_at
    assert dequeue.fields["op"] == "dequeue_flow"
    assert dequeue.fields["eligible_at"] == pytest.approx(eligible_at)
    depth = metrics.to_dict()["gauges"]["sched.queue_depth"]
    assert (depth["value"], depth["min"], depth["max"]) == (0, 0, 1)

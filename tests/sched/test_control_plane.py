"""Tests for the control-plane interface (Sections 2.1 / 3.2)."""

import pytest

from repro.errors import ConfigurationError
from repro.sched import (ControlPlane, PieoScheduler, StrictPriority,
                         TokenBucket, WeightedFairQueuing)
from repro.sched.base import TriggerModel
from repro.sim import FlowQueue, Packet, gbps

from tests.scenarios import FlatRun


def test_reads():
    scheduler = PieoScheduler(StrictPriority())
    scheduler.add_flow(FlowQueue("f", weight=2.0, rate_bps=1e9,
                                 priority=3))
    control = ControlPlane(scheduler)
    config = control.flow_config("f")
    assert config == {"weight": 2.0, "rate_bps": 1e9, "priority": 3,
                      "group": 0}
    assert control.flow_state("f") == {}
    assert control.global_state() is scheduler.state


def test_set_priority_reorders_resident_flow():
    scheduler = PieoScheduler(StrictPriority())
    scheduler.add_flow(FlowQueue("a", priority=1))
    scheduler.add_flow(FlowQueue("b", priority=2))
    scheduler.on_arrival("a", Packet("a"), 0.0)
    scheduler.on_arrival("b", Packet("b"), 0.0)
    control = ControlPlane(scheduler)
    control.set_priority("b", 0, now=0.0)
    assert scheduler.schedule(0.0)[0].flow_id == "b"
    assert control.audit_log == [(0.0, "b", "priority", 0)]


def test_set_priority_on_idle_flow_applies_later():
    scheduler = PieoScheduler(StrictPriority())
    scheduler.add_flow(FlowQueue("a", priority=5))
    control = ControlPlane(scheduler)
    control.set_priority("a", 1, now=0.0)
    scheduler.on_arrival("a", Packet("a"), 1.0)
    assert scheduler.ordered_list.snapshot()[0].rank == 1


def test_set_rate_limit_takes_effect_immediately():
    """Raising a live flow's rate limit speeds it up from the next
    packet (output-triggered model)."""
    run = FlatRun(TokenBucket(), link_gbps=10.0)
    run.add_backlogged_flow(FlowQueue("f", rate_bps=gbps(1)), depth=4)
    control = ControlPlane(run.scheduler)
    run.sim.schedule(0.01, lambda: (
        control.set_rate_limit("f", gbps(4), now=run.sim.now),
        run.engine.kick()))
    run.run(0.02)
    before = run.engine.recorder.rate_bps(start=0.002, end=0.0095)["f"]
    after = run.engine.recorder.rate_bps(start=0.0105, end=0.0195)["f"]
    assert before == pytest.approx(gbps(1), rel=0.05)
    assert after == pytest.approx(gbps(4), rel=0.05)


def test_set_weight_shifts_fair_shares():
    run = FlatRun(WeightedFairQueuing(), link_gbps=10.0)
    run.add_backlogged_flow(FlowQueue("a"), depth=4)
    run.add_backlogged_flow(FlowQueue("b"), depth=4)
    control = ControlPlane(run.scheduler)
    run.sim.schedule(0.01,
                     lambda: control.set_weight("a", 3.0, now=run.sim.now))
    run.run(0.02)
    before = run.engine.recorder.rate_bps(start=0.002, end=0.0095)
    after = run.engine.recorder.rate_bps(start=0.011, end=0.0195)
    assert before["a"] == pytest.approx(before["b"], rel=0.05)
    assert after["a"] == pytest.approx(3 * after["b"], rel=0.1)


def test_set_state_for_algorithm_specific_keys():
    scheduler = PieoScheduler(StrictPriority())
    scheduler.add_flow(FlowQueue("f"))
    control = ControlPlane(scheduler)
    control.set_state("f", "deadline_offset", 0.25)
    assert scheduler.flows["f"].state["deadline_offset"] == 0.25


def test_validation():
    scheduler = PieoScheduler(StrictPriority())
    scheduler.add_flow(FlowQueue("f"))
    control = ControlPlane(scheduler)
    with pytest.raises(ConfigurationError):
        control.set_rate_limit("f", 0)
    with pytest.raises(ConfigurationError):
        control.set_weight("f", -1)


def test_input_trigger_keeps_stale_stamp():
    """The Section 3.2.1 precision trade-off: under the input-triggered
    model a resident flow keeps its packet-stamped attributes across a
    configuration change."""
    scheduler = PieoScheduler(TokenBucket(), trigger=TriggerModel.INPUT,
                              link_rate_bps=gbps(10))
    scheduler.add_flow(FlowQueue("f", rate_bps=gbps(1)))
    packet = Packet("f")
    scheduler.on_arrival("f", packet, 0.0)
    stamped = scheduler.ordered_list.snapshot()[0].send_time
    control = ControlPlane(scheduler)
    control.set_rate_limit("f", gbps(4), now=0.0)
    assert scheduler.ordered_list.snapshot()[0].send_time == stamped
    assert scheduler.flows["f"].rate_bps == gbps(4)  # future packets


def test_live_write_is_observed_like_any_list_operation():
    """A write to a resident flow pulls it out and puts it back through
    the scheduler's observed operations, stamped with the write's time:
    the depth gauge stays right and the trace pairs the two moves."""
    from repro.obs import MetricsRegistry, Tracer

    tracer = Tracer()
    metrics = MetricsRegistry()
    scheduler = PieoScheduler(StrictPriority(), tracer=tracer,
                              metrics=metrics)
    scheduler.add_flow(FlowQueue("a", priority=3))
    scheduler.on_arrival("a", Packet("a"), 1.0)
    ControlPlane(scheduler).set_priority("a", 1, now=2.0)
    assert metrics.gauge("sched.queue_depth").value == 1
    assert len(scheduler.ordered_list) == 1
    dequeues = [event for event in tracer.events if event.kind == "dequeue"]
    assert len(dequeues) == 1 and dequeues[0].time == 2.0
    assert [event.time for event in tracer.events
            if event.kind == "enqueue"] == [1.0, 2.0]

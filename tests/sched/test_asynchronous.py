"""Tests for asynchronous scheduling (Section 4.4): priority aging and
network-feedback pause/resume."""

import pytest

from repro.sched import (AgingStrictPriority, FeedbackChannel,
                         HierarchicalScheduler, PieoScheduler, TokenBucket,
                         WF2Qplus, install_aging_monitor, starving_flows,
                         two_level_tree)
from repro.sim import (BackloggedSource, FlowQueue, Link, Packet, Simulator,
                       TransmitEngine, gbps)
from repro.sim.packet import MTU_BYTES


def saturated_priority_setup(algorithm):
    sim = Simulator()
    link = Link(gbps(1))
    scheduler = PieoScheduler(algorithm, link_rate_bps=link.rate_bps)
    scheduler.add_flow(FlowQueue("high", priority=0))
    scheduler.add_flow(FlowQueue("low", priority=9))
    engine = TransmitEngine(sim, scheduler, link)
    engine.add_departure_listener(
        "high", lambda: engine.arrival_sink("high", Packet("high")))
    engine.arrival_sink("high", Packet("high"))
    engine.arrival_sink("high", Packet("high"))
    engine.arrival_sink("low", Packet("low"))
    return sim, scheduler, engine


def test_aging_rescues_starving_flow():
    """With the aging alarm installed, the low-priority flow eventually
    transmits despite a saturating high-priority flow."""
    sim, scheduler, engine = saturated_priority_setup(AgingStrictPriority())
    install_aging_monitor(sim, scheduler, threshold=1e-3, period=5e-4,
                          end_time=0.1)
    sim.run_until(0.1)
    assert "low" in engine.recorder.order()
    # The alarm handler decremented the flow's priority at least 9 times.
    assert scheduler.flows["low"].priority < 1


def test_no_aging_monitor_means_starvation():
    sim, scheduler, engine = saturated_priority_setup(AgingStrictPriority())
    sim.run_until(0.05)
    assert "low" not in engine.recorder.order()


def test_starving_flows_detector():
    scheduler = PieoScheduler(AgingStrictPriority())
    backlogged = scheduler.add_flow(FlowQueue("b", priority=1))
    scheduler.add_flow(FlowQueue("idle", priority=1))
    scheduler.on_arrival("b", Packet("b"), 0.0)
    assert starving_flows(scheduler, now=0.5, threshold=1.0) == []
    assert starving_flows(scheduler, now=2.0,
                          threshold=1.0) == [backlogged]


def test_aging_resets_age_on_service():
    sim, scheduler, engine = saturated_priority_setup(AgingStrictPriority())
    sim.run_until(0.01)
    assert scheduler.flows["high"].state["age"] > 0.0


def test_install_aging_monitor_validation():
    sim = Simulator()
    scheduler = PieoScheduler(AgingStrictPriority())
    with pytest.raises(ValueError):
        install_aging_monitor(sim, scheduler, threshold=0, period=1,
                              end_time=1)


def test_feedback_pause_silences_flow():
    sim = Simulator()
    link = Link(gbps(1))
    scheduler = PieoScheduler(AgingStrictPriority(),
                              link_rate_bps=link.rate_bps)
    scheduler.add_flow(FlowQueue("f", priority=1))
    engine = TransmitEngine(sim, scheduler, link)
    engine.add_departure_listener(
        "f", lambda: engine.arrival_sink("f", Packet("f")))
    channel = FeedbackChannel(sim, scheduler, engine=engine)
    engine.arrival_sink("f", Packet("f"))
    engine.arrival_sink("f", Packet("f"))
    sim.schedule(0.001, lambda: channel.pause("f"))
    sim.run_until(0.01)
    paused_count = len(engine.recorder)
    sim.run_until(0.02)
    assert len(engine.recorder) == paused_count  # nothing after pause


def test_feedback_resume_restarts_flow():
    sim = Simulator()
    link = Link(gbps(1))
    scheduler = PieoScheduler(AgingStrictPriority(),
                              link_rate_bps=link.rate_bps)
    scheduler.add_flow(FlowQueue("f", priority=1))
    engine = TransmitEngine(sim, scheduler, link)
    engine.add_departure_listener(
        "f", lambda: engine.arrival_sink("f", Packet("f")))
    channel = FeedbackChannel(sim, scheduler, engine=engine)
    engine.arrival_sink("f", Packet("f"))
    engine.arrival_sink("f", Packet("f"))
    sim.schedule(0.001, lambda: channel.pause("f"))
    sim.schedule(0.010, lambda: channel.resume("f"))
    sim.run_until(0.02)
    after_resume = [d for d in engine.recorder.departures
                    if d.time > 0.010]
    assert after_resume  # flow transmits again after resume
    assert channel.log[0].kind == "pause"
    assert channel.log[1].kind == "resume"


def test_feedback_delay_applied():
    sim = Simulator()
    scheduler = PieoScheduler(AgingStrictPriority())
    scheduler.add_flow(FlowQueue("f", priority=1))
    channel = FeedbackChannel(sim, scheduler, delay=0.5)
    scheduler.on_arrival("f", Packet("f"), 0.0)
    channel.pause("f")
    sim.run_until(0.4)
    assert scheduler.schedule(sim.now) != []  # not yet applied
    scheduler.on_arrival("f", Packet("f"), sim.now)
    sim.run_until(0.6)
    assert channel.log[0].time == pytest.approx(0.5)
    assert scheduler.schedule(sim.now) == []  # now paused


def test_feedback_validation():
    sim = Simulator()
    scheduler = PieoScheduler(AgingStrictPriority())
    with pytest.raises(ValueError):
        FeedbackChannel(sim, scheduler, delay=-1)


def run_paused_hierarchy(backend):
    """Token Bucket over WF2Q+ (three 2 Gbps nodes, two backlogged flows
    each); feedback pauses both of n0's flows at 1 ms through n0's
    scheduler, which shares its level's list with n1 and n2, and
    resumes them at 2 ms."""
    sim = Simulator()
    link = Link(gbps(10))
    root, leaves = two_level_tree(TokenBucket(), [WF2Qplus()] * 3,
                                  flows_per_node=2,
                                  node_rate_bps=[gbps(2)] * 3)
    tree = HierarchicalScheduler(root, link_rate_bps=link.rate_bps,
                                 backend=backend)
    engine = TransmitEngine(sim, tree, link)
    for flow in leaves:
        source = BackloggedSource(sim, flow.flow_id, engine.arrival_sink)
        engine.add_departure_listener(flow.flow_id, source.on_departure)
        source.start(0.0)
    node = root.children["n0"].scheduler
    assert node.ordered_list is tree.level_lists[1]
    channel = FeedbackChannel(sim, node, engine=engine)
    for flow_id in ("n0.f0", "n0.f1"):
        sim.schedule(1e-3, lambda flow_id=flow_id: channel.pause(flow_id))
        sim.schedule(2e-3, lambda flow_id=flow_id: channel.resume(flow_id))
    paused = {}
    sim.schedule(1.5e-3, lambda: paused.update(
        resident={flow_id for flow_id in ("n0.f0", "n0.f1")
                  if flow_id in node.ordered_list}))
    sim.run_until(4e-3)
    return engine.recorder.departures, paused["resident"]


@pytest.mark.parametrize("backend", ["reference", "hardware"])
def test_feedback_pauses_and_resumes_flows_inside_a_hierarchy(backend):
    departures, resident_while_paused = run_paused_hierarchy(backend)
    assert resident_while_paused == set()
    # One MTU packet may still be on the wire when the pause lands.
    window = (1e-3 + 2 * MTU_BYTES * 8 / gbps(10), 2e-3)
    for flow_id in ("n0.f0", "n0.f1"):
        times = [d.time for d in departures if d.flow_id == flow_id]
        assert not [t for t in times if window[0] < t <= window[1]]
        # After the resume the flow gets its half of the node's 2 Gbps.
        after = len([t for t in times if t > 2e-3])
        assert after == pytest.approx(2e-3 * gbps(1) / (MTU_BYTES * 8),
                                      rel=0.1)
    others = [d.time for d in departures if d.flow_id == "n1.f0"]
    assert [t for t in others if window[0] < t <= window[1]]


def test_hierarchy_feedback_is_backend_independent():
    reference, _ = run_paused_hierarchy("reference")
    hardware, _ = run_paused_hierarchy("hardware")
    assert [(d.time, d.flow_id) for d in reference] == \
        [(d.time, d.flow_id) for d in hardware]


def test_arrival_on_a_paused_empty_leaf_stays_out_of_the_hierarchy():
    root, _leaves = two_level_tree(TokenBucket(), [WF2Qplus()],
                                   flows_per_node=2,
                                   node_rate_bps=[gbps(1)])
    tree = HierarchicalScheduler(root)
    node = root.children["n0"].scheduler
    node.pause_flow("n0.f0", now=0.0)
    tree.on_arrival("n0.f0", Packet("n0.f0"), now=0.0)
    assert "n0.f0" not in node.ordered_list
    assert tree.schedule(0.0) == []
    assert node.resume_flow("n0.f0", now=0.0)
    assert [p.flow_id for p in tree.schedule(0.0)] == ["n0.f0"]

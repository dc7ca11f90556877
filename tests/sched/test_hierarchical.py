"""Tests for hierarchical scheduling (Section 4.3)."""

import math

import pytest

from repro.core.element import Element
from repro.core.pieo import PieoHardwareList
from repro.core.reference import ReferencePieo
from repro.errors import ConfigurationError
from repro.sched import (DeficitRoundRobin, HierarchicalScheduler,
                         LogicalPieoView, SchedNode, StrictPriority,
                         TokenBucket, WF2Qplus, two_level_tree)
from repro.sim import (BackloggedSource, FlowQueue, Link, Packet, Simulator,
                       TransmitEngine, gbps)
from repro.sim.packet import MTU_BYTES


# ---------------------------------------------------------------------
# LogicalPieoView: logical PIEOs sharing a physical PIEO
# ---------------------------------------------------------------------
def test_logical_views_partition_physical_list():
    physical = ReferencePieo()
    view_a = LogicalPieoView(physical, group_id=1)
    view_b = LogicalPieoView(physical, group_id=2)
    view_a.enqueue(Element("a1", rank=5))
    view_b.enqueue(Element("b1", rank=1))
    view_a.enqueue(Element("a2", rank=3))
    assert len(physical) == 3
    assert len(view_a) == 2
    assert len(view_b) == 1
    # Each view extracts its own smallest ranked eligible element.
    assert view_a.dequeue(now=0).flow_id == "a2"
    assert view_b.dequeue(now=0).flow_id == "b1"
    assert "a1" in view_a
    assert "a1" not in view_b


def test_logical_view_on_hardware_list():
    physical = PieoHardwareList(32, self_check=True)
    view_a = LogicalPieoView(physical, group_id=1)
    view_b = LogicalPieoView(physical, group_id=2)
    for index in range(8):
        (view_a if index % 2 else view_b).enqueue(
            Element(index, rank=index))
    assert view_a.dequeue(now=0).flow_id == 1
    assert view_b.dequeue(now=0).flow_id == 0
    assert view_b.min_send_time() == 0


def test_logical_view_dequeue_flow_scoped():
    physical = ReferencePieo()
    view_a = LogicalPieoView(physical, group_id=1)
    view_b = LogicalPieoView(physical, group_id=2)
    view_a.enqueue(Element("x", rank=1))
    assert view_b.dequeue_flow("x") is None
    assert view_a.dequeue_flow("x").flow_id == "x"


def test_logical_view_rejects_explicit_group_range():
    view = LogicalPieoView(ReferencePieo(), group_id=1)
    with pytest.raises(ConfigurationError):
        view.dequeue(now=0, group_range=(0, 1))


def test_logical_view_min_send_time_scoped():
    physical = ReferencePieo()
    view_a = LogicalPieoView(physical, group_id=1)
    view_b = LogicalPieoView(physical, group_id=2)
    view_a.enqueue(Element("a", rank=1, send_time=5))
    view_b.enqueue(Element("b", rank=1, send_time=9))
    assert view_a.min_send_time() == 5
    assert view_b.min_send_time() == 9
    assert math.isinf(LogicalPieoView(physical, group_id=3).min_send_time())


# ---------------------------------------------------------------------
# Tree construction
# ---------------------------------------------------------------------
def test_two_level_tree_shape():
    root, leaves = two_level_tree(TokenBucket(), [WF2Qplus()] * 3,
                                  flows_per_node=4,
                                  node_rate_bps=[1e9, 2e9, 3e9])
    assert len(root.children) == 3
    assert len(leaves) == 12
    assert root.children["n1"].rate_bps == 2e9
    scheduler = HierarchicalScheduler(root)
    assert len(scheduler.level_lists) == 2
    assert scheduler.leaf_parent["n2.f0"] is root.children["n2"]


def test_duplicate_child_rejected():
    node = SchedNode("n", StrictPriority())
    node.add_child(FlowQueue("f"))
    with pytest.raises(ConfigurationError):
        node.add_child(FlowQueue("f"))


def test_node_is_empty_tracks_descendants():
    root, leaves = two_level_tree(StrictPriority(), [StrictPriority()],
                                  flows_per_node=2)
    HierarchicalScheduler(root)
    node = root.children["n0"]
    assert node.is_empty
    leaves[0].push(Packet("n0.f0"))
    assert not node.is_empty


def test_shaped_node_head_size_peeks_at_trigger_time():
    """A wall-time node reports its head packet as of the tree's
    latest trigger, not as of time 0."""
    root = SchedNode("root", WF2Qplus())
    node = SchedNode("n", TokenBucket(default_burst_bytes=500))
    root.add_child(node)
    node.add_child(FlowQueue("f", rate_bps=1e6))
    scheduler = HierarchicalScheduler(root)
    for _ in range(3):
        scheduler.on_arrival("f", Packet("f", size_bytes=400), now=0.0)
    assert [p.size_bytes for p in scheduler.schedule(0.0)] == [400]
    # 100 tokens left: the next 400 bytes are due at 2.4 ms, so at the
    # trigger time nothing below the node is eligible.
    assert node.head_size() == MTU_BYTES
    # By 10 ms the bucket is full again: the second packet leaves and
    # the third is eligible at once.
    assert [p.size_bytes for p in scheduler.schedule(0.01)] == [400]
    assert node.head_size() == 400
    assert node.head.size_bytes == 400


def test_nodes_at_same_level_share_one_physical_pieo():
    root, _leaves = two_level_tree(StrictPriority(),
                                   [StrictPriority()] * 4,
                                   flows_per_node=3)
    scheduler = HierarchicalScheduler(root)
    views = {root.children[f"n{i}"].scheduler.ordered_list._physical
             for i in range(4)}
    assert views == {scheduler.level_lists[1]}


# ---------------------------------------------------------------------
# End-to-end scheduling through the hierarchy
# ---------------------------------------------------------------------
def run_two_level(root_algorithm, node_algorithms, node_rates, duration,
                  flows_per_node=3, list_factory=None):
    sim = Simulator()
    link = Link(gbps(40))
    root, leaves = two_level_tree(root_algorithm, node_algorithms,
                                  flows_per_node=flows_per_node,
                                  node_rate_bps=node_rates)
    scheduler = HierarchicalScheduler(root, link_rate_bps=link.rate_bps,
                                      list_factory=list_factory)
    engine = TransmitEngine(sim, scheduler, link)
    for flow in leaves:
        source = BackloggedSource(sim, flow.flow_id, engine.arrival_sink,
                                  depth=2)
        engine.add_departure_listener(flow.flow_id, source.on_departure)
        source.start(0.0)
    sim.run_until(duration)
    return engine, scheduler


def test_hierarchy_enforces_node_rate_limits():
    node_rates = [gbps(1), gbps(2), gbps(4)]
    engine, _ = run_two_level(TokenBucket(), [WF2Qplus()] * 3, node_rates,
                              duration=0.02)
    measured = engine.recorder.rate_bps(
        start=0.002, end=0.02, key=lambda fid: fid.split(".")[0])
    for index, rate in enumerate(node_rates):
        assert measured[f"n{index}"] == pytest.approx(rate, rel=0.03)


def test_hierarchy_fair_shares_within_node():
    engine, _ = run_two_level(TokenBucket(), [WF2Qplus()] * 2,
                              [gbps(3), gbps(6)], duration=0.02)
    flow_rates = engine.recorder.rate_bps(start=0.002, end=0.02)
    for node, rate in (("n0", 1e9), ("n1", 2e9)):
        for flow_index in range(3):
            assert flow_rates[f"{node}.f{flow_index}"] == pytest.approx(
                rate, rel=0.05)


def test_hierarchy_on_hardware_lists():
    engine, scheduler = run_two_level(
        TokenBucket(), [WF2Qplus()] * 2, [gbps(2), gbps(4)],
        duration=0.01,
        list_factory=lambda _cap: PieoHardwareList(64, self_check=True))
    measured = engine.recorder.rate_bps(
        start=0.001, end=0.01, key=lambda fid: fid.split(".")[0])
    assert measured["n0"] == pytest.approx(gbps(2), rel=0.05)
    assert measured["n1"] == pytest.approx(gbps(4), rel=0.05)
    for physical in scheduler.level_lists:
        physical.check()


def test_hierarchy_on_pifo_design_lists():
    """The logical-PIEO machinery also runs on the footnote-7
    flip-flop design (any PieoList works as the physical list)."""
    from repro.core.pifo import PifoDesignPieoList
    engine, _ = run_two_level(
        TokenBucket(), [WF2Qplus()] * 2, [gbps(2), gbps(4)],
        duration=0.01,
        list_factory=lambda _cap: PifoDesignPieoList(64))
    measured = engine.recorder.rate_bps(
        start=0.001, end=0.01, key=lambda fid: fid.split(".")[0])
    assert measured["n0"] == pytest.approx(gbps(2), rel=0.05)
    assert measured["n1"] == pytest.approx(gbps(4), rel=0.05)


def test_hierarchy_mixed_policies_per_node():
    """Each node can run a different policy (DRR vs WF2Q+)."""
    engine, _ = run_two_level(TokenBucket(),
                              [DeficitRoundRobin(), WF2Qplus()],
                              [gbps(3), gbps(3)], duration=0.02)
    flow_rates = engine.recorder.rate_bps(start=0.002, end=0.02)
    for node in ("n0", "n1"):
        for flow_index in range(3):
            assert flow_rates[f"{node}.f{flow_index}"] == pytest.approx(
                1e9, rel=0.1)


def test_hierarchy_work_conserving_root():
    """A work-conserving root (strict priority by node) gives the whole
    link to the highest-priority active node."""
    sim = Simulator()
    link = Link(gbps(10))
    root = SchedNode("root", StrictPriority())
    urgent = SchedNode("urgent", WF2Qplus(), priority=0)
    bulk = SchedNode("bulk", WF2Qplus(), priority=5)
    root.add_child(urgent)
    root.add_child(bulk)
    flow_u = FlowQueue("u")
    flow_b = FlowQueue("b")
    urgent.add_child(flow_u)
    bulk.add_child(flow_b)
    scheduler = HierarchicalScheduler(root, link_rate_bps=link.rate_bps)
    engine = TransmitEngine(sim, scheduler, link)
    for flow in (flow_u, flow_b):
        source = BackloggedSource(sim, flow.flow_id, engine.arrival_sink,
                                  depth=2)
        engine.add_departure_listener(flow.flow_id, source.on_departure)
        source.start(0.0)
    sim.run_until(0.005)
    rates = engine.recorder.rate_bps(start=0.0005, end=0.005)
    assert rates["u"] == pytest.approx(10e9, rel=0.05)
    assert rates.get("b", 0.0) < 1e8


def test_three_level_hierarchy():
    """n-level support: root strict priority -> token-bucket groups ->
    WF2Q+ flows."""
    sim = Simulator()
    link = Link(gbps(10))
    root = SchedNode("root", StrictPriority())
    tenant = SchedNode("tenant", TokenBucket(), priority=0)
    root.add_child(tenant)
    vm_a = SchedNode("vm_a", WF2Qplus(), rate_bps=gbps(1))
    vm_b = SchedNode("vm_b", WF2Qplus(), rate_bps=gbps(2))
    tenant.add_child(vm_a)
    tenant.add_child(vm_b)
    flows = []
    for vm, count in ((vm_a, 2), (vm_b, 2)):
        for index in range(count):
            flow = FlowQueue(f"{vm.flow_id}.f{index}")
            vm.add_child(flow)
            flows.append(flow)
    scheduler = HierarchicalScheduler(root, link_rate_bps=link.rate_bps)
    assert len(scheduler.level_lists) == 3
    engine = TransmitEngine(sim, scheduler, link)
    for flow in flows:
        source = BackloggedSource(sim, flow.flow_id, engine.arrival_sink,
                                  depth=2)
        engine.add_departure_listener(flow.flow_id, source.on_departure)
        source.start(0.0)
    sim.run_until(0.03)
    rates = engine.recorder.rate_bps(
        start=0.003, end=0.03, key=lambda fid: fid.split(".")[0])
    assert rates["vm_a"] == pytest.approx(gbps(1), rel=0.05)
    assert rates["vm_b"] == pytest.approx(gbps(2), rel=0.05)

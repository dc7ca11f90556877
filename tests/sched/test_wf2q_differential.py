"""Differential test of WF2Q+'s start-time heap against an O(N) scan.

``ScanWF2Q`` below is WF2Q+ with ``min over backlogged f of
f.start_time`` computed the direct way, by scanning every flow on every
transmitted packet.  Random programs of arrivals (mixed sizes, equal
start-time ties), scheduling decisions, pause/resume (refill while
paused, pause before the first packet), alarm extracts with and without
re-enqueue, and mid-run ``add_flow`` (empty or pre-filled) run in
lockstep on a heap-based system and a scan-based one.  After every step
the virtual times and the departures must be identical.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import (DeficitRoundRobin, HierarchicalScheduler,
                         PieoScheduler, SchedNode, TriggerModel, WF2Qplus)
from repro.sched.base import SchedulingAlgorithm, TimeBase
from repro.sim.flow import FlowQueue
from repro.sim.packet import Packet

SIZES = (64, 700, 1500)
WEIGHTS = (0.25, 0.5, 1.0, 4.0)
LINK_RATE_BPS = 1e9


class ScanWF2Q(SchedulingAlgorithm):
    """WF2Q+ whose virtual-time floor scans every flow (the oracle)."""

    name = "wf2q+scan"
    time_base = TimeBase.VIRTUAL

    def pre_enqueue(self, ctx, flow):
        finish = flow.state.get("finish_time", 0.0)
        if ctx.reason == "requeue":
            start = finish
        else:
            start = max(finish, ctx.virtual_time)
        finish = start + (flow.head_size() * 8
                          / (ctx.link_rate_bps * flow.weight))
        flow.state["start_time"] = start
        flow.state["finish_time"] = finish
        ctx.enqueue(flow, rank=finish, send_time=start)

    def post_dequeue(self, ctx, flow):
        transmission = flow.head_size() * 8 / ctx.link_rate_bps
        ctx.transmit_head(flow)
        if not flow.is_empty:
            ctx.reenqueue(flow)
        virtual_time = ctx.virtual_time + transmission
        starts = [other.state.get("start_time", 0.0)
                  for other in ctx.flows.values() if other.queue]
        if starts and min(starts) > virtual_time:
            virtual_time = min(starts)
        ctx.virtual_time = virtual_time


def _requeue_handler(scheduler: PieoScheduler, algorithm):
    """Alarm handler that puts the extracted flow straight back."""
    def handler(ctx, flow):
        if scheduler.trigger is TriggerModel.INPUT:
            head = flow.head
            ctx.enqueue(flow, rank=head.rank, send_time=head.send_time)
        else:
            algorithm.pre_enqueue(ctx, flow)
    return handler


def _departures(packets):
    return [(packet.flow_id, packet.size_bytes) for packet in packets]


# ---------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------
_arrive = st.tuples(st.just("arrive"), st.integers(0, 63),
                    st.sampled_from(SIZES))
_schedule = st.tuples(st.just("schedule"))
_pause = st.tuples(st.just("pause"), st.integers(0, 63))
_resume = st.tuples(st.just("resume"), st.integers(0, 63))
_alarm = st.tuples(st.just("alarm"), st.integers(0, 63), st.booleans())
_add_flow = st.tuples(st.just("add_flow"), st.sampled_from(WEIGHTS),
                      st.booleans())

FLAT_OPS = st.one_of(_arrive, _arrive, _schedule, _schedule, _schedule,
                     _pause, _resume, _alarm, _add_flow)
TREE_OPS = st.one_of(_arrive, _arrive, _schedule, _schedule, _schedule,
                     st.tuples(st.just("pause"), st.integers(0, 63),
                               st.integers(0, 63)),
                     st.tuples(st.just("resume"), st.integers(0, 63),
                               st.integers(0, 63)),
                     st.tuples(st.just("alarm"), st.integers(0, 63),
                               st.integers(0, 63), st.booleans()))


# ---------------------------------------------------------------------
# Flat scheduler
# ---------------------------------------------------------------------
def _flat(algorithm, weights, trigger):
    scheduler = PieoScheduler(algorithm, trigger=trigger,
                              link_rate_bps=LINK_RATE_BPS)
    for index, weight in enumerate(weights):
        scheduler.add_flow(FlowQueue(index, weight=weight))
    return scheduler


def run_flat_program(weights, trigger, program):
    """Run ``program`` on a heap and a scan scheduler in lockstep."""
    systems = [_flat(algorithm, weights, trigger)
               for algorithm in (WF2Qplus(), ScanWF2Q())]
    for step, op in enumerate(program):
        now = step * 1e-6
        outputs = []
        for scheduler in systems:
            kind = op[0]
            if kind == "add_flow":
                # A pre-filled flow joins backlogged but outside the
                # ordered list, until resume_flow enqueues it.
                flow = FlowQueue(len(scheduler.flows), weight=op[1])
                if op[2]:
                    flow.push(Packet(flow.flow_id))
                scheduler.add_flow(flow)
                outputs.append(None)
                continue
            flow_id = op[1] % len(scheduler.flows) if len(op) > 1 else None
            if kind == "arrive":
                scheduler.on_arrival(flow_id, Packet(flow_id,
                                                     size_bytes=op[2]), now)
                outputs.append(None)
            elif kind == "schedule":
                outputs.append(_departures(scheduler.schedule(now)))
            elif kind == "pause":
                scheduler.pause_flow(flow_id, now)
                outputs.append(None)
            elif kind == "resume":
                outputs.append(scheduler.resume_flow(flow_id, now))
            else:
                handler = (_requeue_handler(scheduler, scheduler.algorithm)
                           if op[2] else (lambda ctx, flow: None))
                outputs.append(scheduler.run_alarm(flow_id, now, handler))
        heap, scan = systems
        assert outputs[0] == outputs[1], (step, op)
        assert (heap.state.get("virtual_time", 0.0)
                == scan.state.get("virtual_time", 0.0)), (step, op)
    return systems


@settings(max_examples=150, deadline=None)
@given(weights=st.lists(st.sampled_from(WEIGHTS), min_size=1, max_size=6),
       trigger=st.sampled_from([TriggerModel.OUTPUT, TriggerModel.INPUT]),
       program=st.lists(FLAT_OPS, max_size=120))
def test_flat_heap_matches_scan(weights, trigger, program):
    run_flat_program(weights, trigger, program)


#: Flow 0 (weight 0.25) runs its start time ahead of the virtual clock;
#: flow 1 becomes backlogged without Pre-Enqueue, so only its old or
#: default start time keeps the clock from jumping to flow 0's.
BACKLOGGED_WITHOUT_PRE_ENQUEUE = {
    "pause-before-first-packet": ([0.25, 1.0], TriggerModel.OUTPUT, [
        ("arrive", 0, 1500), ("arrive", 0, 1500), ("pause", 1),
        ("arrive", 1, 64), ("schedule",)]),
    "paused-before-the-heap-exists": ([0.25, 1.0], TriggerModel.OUTPUT, [
        ("pause", 1), ("arrive", 1, 64), ("arrive", 0, 1500),
        ("arrive", 0, 1500), ("schedule",)]),
    "refill-while-paused": ([0.25, 1.0], TriggerModel.OUTPUT, [
        ("arrive", 1, 64), ("arrive", 0, 1500), ("arrive", 0, 1500),
        ("arrive", 0, 1500), ("schedule",), ("schedule",), ("pause", 1),
        ("arrive", 1, 64), ("schedule",)]),
    "input-trigger-refill": ([0.25, 1.0], TriggerModel.INPUT, [
        ("arrive", 0, 1500), ("arrive", 0, 1500), ("pause", 0),
        ("resume", 0), ("pause", 0), ("resume", 0), ("arrive", 1, 64),
        ("arrive", 1, 64), ("schedule",)]),
    "add-pre-filled-flow": ([0.25], TriggerModel.OUTPUT, [
        ("arrive", 0, 1500), ("arrive", 0, 1500),
        ("add_flow", 1.0, True), ("schedule",)]),
}


@pytest.mark.parametrize("case", sorted(BACKLOGGED_WITHOUT_PRE_ENQUEUE))
def test_flat_backlogged_without_pre_enqueue(case):
    weights, trigger, program = BACKLOGGED_WITHOUT_PRE_ENQUEUE[case]
    heap, _ = run_flat_program(weights, trigger, program)
    assert heap.flows[1].queue
    assert heap.state["virtual_time"] < heap.flows[0].state["start_time"]


# ---------------------------------------------------------------------
# Two-level hierarchy: WF2Q+ at the root over SchedNode children
# ---------------------------------------------------------------------
def _tree(variant, node_weights, flows_per_node, inner):
    root = SchedNode("root", variant())
    for node_index, weight in enumerate(node_weights):
        node = SchedNode(f"n{node_index}",
                         variant() if inner == "wf2q" else
                         DeficitRoundRobin(), weight=weight)
        root.add_child(node)
        for flow_index in range(flows_per_node):
            node.add_child(FlowQueue(
                f"n{node_index}.f{flow_index}",
                weight=WEIGHTS[flow_index % len(WEIGHTS)]))
    return HierarchicalScheduler(root, link_rate_bps=LINK_RATE_BPS)


def _levels(tree):
    """(scheduler, owning node) for the root and every level-1 node."""
    nodes = [tree.root] + list(tree.root.children.values())
    return [(node.scheduler, node) for node in nodes]


def _virtual_times(tree):
    return [scheduler.state.get("virtual_time", 0.0)
            for scheduler, _ in _levels(tree)]


def run_tree_program(node_weights, flows_per_node, inner, program):
    systems = [_tree(variant, node_weights, flows_per_node, inner)
               for variant in (WF2Qplus, ScanWF2Q)]
    leaves = sorted(systems[0].flows)
    for step, op in enumerate(program):
        now = step * 1e-6
        outputs = []
        for tree in systems:
            kind = op[0]
            if kind == "arrive":
                leaf = leaves[op[1] % len(leaves)]
                tree.on_arrival(leaf, Packet(leaf, size_bytes=op[2]), now)
                outputs.append(None)
            elif kind == "schedule":
                outputs.append(_departures(tree.schedule(now)))
            else:
                levels = _levels(tree)
                scheduler, owner = levels[op[1] % len(levels)]
                children = list(scheduler.flows)
                child = children[op[2] % len(children)]
                if kind == "pause":
                    scheduler.pause_flow(child, now)
                    outputs.append(None)
                elif kind == "resume":
                    outputs.append(scheduler.resume_flow(child, now))
                else:
                    handler = (_requeue_handler(scheduler, owner.algorithm)
                               if op[3] else (lambda ctx, flow: None))
                    outputs.append(scheduler.run_alarm(child, now, handler))
        heap, scan = systems
        assert outputs[0] == outputs[1], (step, op)
        assert _virtual_times(heap) == _virtual_times(scan), (step, op)
    return systems


@settings(max_examples=100, deadline=None)
@given(node_weights=st.lists(st.sampled_from(WEIGHTS), min_size=1,
                             max_size=4),
       flows_per_node=st.integers(1, 3),
       inner=st.sampled_from(["wf2q", "drr"]),
       program=st.lists(TREE_OPS, max_size=120))
def test_hierarchy_heap_matches_scan(node_weights, flows_per_node, inner,
                                     program):
    run_tree_program(node_weights, flows_per_node, inner, program)


def test_hierarchy_sustained_run_matches_scan():
    """A longer deterministic run: leaves refilled unevenly with mixed
    sizes, so nodes go idle and return."""
    program = []
    for round_index in range(60):
        for leaf in range(6):
            if (leaf + round_index) % 4:
                program.append(("arrive", leaf,
                                SIZES[(leaf * 7 + round_index) % 3]))
        program.extend([("schedule",)] * 5)
    heap, _ = run_tree_program([1.0, 2.0, 4.0], 2, "wf2q", program)
    assert heap.root.scheduler.state["virtual_time"] > 0.0

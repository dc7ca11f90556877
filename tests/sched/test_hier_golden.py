"""Golden departure digests for hierarchies beyond the benchmark.

The benchmark pins one tree (Token Bucket over WF2Q+, two levels, MTU
packets).  Each configuration here runs a small simulation and compares
the sha256 of its departures (time, flow, size, packet id) against a
digest recorded before the scheduler hot path was flattened, so a
refactor of ``repro.sched.framework``/``repro.sched.hierarchical`` must
keep every decision.  Together they cover a three-level tree, DRR,
strict-priority and WF2Q+ inner nodes, mixed packet sizes, open-loop
arrivals that empty and re-activate subtrees, the input trigger, the
blocked-subtree put-back in ``PieoScheduler.schedule`` (a shaped inner
node under a work-conserving root), and a traced run whose JSONL trace
bytes are pinned as well.
"""

from __future__ import annotations

import hashlib
import io
import random

from repro.obs import MetricsRegistry, Tracer
from repro.sched import (DeficitRoundRobin, HierarchicalScheduler,
                         PieoScheduler, SchedNode, StrictPriority,
                         TokenBucket, TriggerModel, WF2Qplus)
from repro.sim import (BackloggedSource, FlowQueue, Link, Simulator,
                       TransmitEngine, gbps)
from repro.sim.generators import PoissonGenerator
from repro.sim.packet import reset_packet_ids

#: Packet sizes cycled over a tree's leaves, in leaf order.
SIZES = (1500, 300, 900, 64, 1200)

GOLDEN = {
    "three_level":
        "7fde5f19be144d2015d132ce0c199e467b40bb231c369d52410057798d217044",
    "drr_inner":
        "3aa0daa9ef12213a7dd81fe58a7723ca6236c5eb097a9d022487334c76f79b0d",
    "strict_inner":
        "b52341ee117f56b26226f1187758d8560faaf7b4eadb43bac6b4879b678d7734",
    "wf2q_inner":
        "b5ef8bf04f58faa6a968305e960bcec2b9abcf29ae0936f72618d2ae4e50b120",
    # Re-recorded when Token Bucket nodes began peeking their children
    # at the trigger time instead of at time 0: the WF2Q+ root now sees
    # a node's real head size once its leaf's send time has passed,
    # where it used to fall back to MTU.
    "shaped_under_wf2q":
        "16ff7d8fb3b81c055ace6f8090d7c8d09b3e0b4652ff299e628fd90f3cbad3a1",
    "blocked_subtree":
        "a7c3c4cdca5475ed1b5f27ec2fb1eb2086fbf01a02c496fda5acd53e38148923",
    "input_trigger":
        "8077397820175a30ac73e9177574ccb4705f32d95bc7e51c7cb2f52c3674824d",
    "traced_departures":
        "d848595bdea77517bfdb412e7e080d81b5fc912b84031aa4dffc7fe99d14ef57",
    "traced_jsonl":
        "28959d3daf474e108748ecd363957994ddc7d7a214bbc6fd652fe957055a8565",
}


def _node(node_id, algorithm, children, rate_gbps=0.0, priority=0):
    node = SchedNode(node_id, algorithm, rate_bps=gbps(rate_gbps),
                     priority=priority)
    for child in children:
        node.add_child(child)
    return node


def _leaves(prefix, count, **config):
    return [FlowQueue(f"{prefix}.f{index}", **config)
            for index in range(count)]


def _simulate(build, duration, poisson=(), tracer=None, metrics=None):
    """Run ``build(link_rate_bps, tracer, metrics) -> (scheduler,
    flows)`` on a 10 Gbps link: every flow is backlogged at depth 2
    except those named in ``poisson`` (``{flow_id: rate_gbps}``), which
    get seeded open-loop Poisson arrivals.  Flow ``i`` sends
    ``SIZES[i % len(SIZES)]``-byte packets.  Returns the departure
    digest."""
    reset_packet_ids(0)
    sim = Simulator(tracer=tracer, metrics=metrics)
    link = Link(gbps(10), tracer=tracer)
    scheduler, flows = build(link.rate_bps, tracer, metrics)
    engine = TransmitEngine(sim, scheduler, link, tracer=tracer,
                            metrics=metrics)
    poisson = dict(poisson)
    for index, flow in enumerate(flows):
        size = SIZES[index % len(SIZES)]
        rate = poisson.get(flow.flow_id)
        if rate is None:
            source = BackloggedSource(sim, flow.flow_id,
                                      engine.arrival_sink, depth=2,
                                      size_bytes=size)
            engine.add_departure_listener(flow.flow_id,
                                          source.on_departure)
        else:
            source = PoissonGenerator(sim, flow.flow_id,
                                      engine.arrival_sink, gbps(rate),
                                      size_bytes=size,
                                      rng=random.Random(index))
        source.start(0.0)
    sim.run_until(duration)
    digest = hashlib.sha256()
    for departure in engine.recorder.departures:
        digest.update(
            f"{departure.time!r},{departure.flow_id},"
            f"{departure.size_bytes},{departure.packet_id}\n".encode())
    return digest.hexdigest()


def _hierarchy(root):
    def build(link_rate_bps, tracer, metrics):
        scheduler = HierarchicalScheduler(root, link_rate_bps=link_rate_bps,
                                          tracer=tracer, metrics=metrics)
        return scheduler, list(scheduler.flows.values())
    return build


def three_level():
    """Strict priority over a Token Bucket tenant (WF2Q+ and DRR VMs
    below it) and a WF2Q+ tenant holding a strict-priority VM next to a
    leaf of its own."""
    gold = _node("gold", TokenBucket(), [
        _node("vm_a", WF2Qplus(), _leaves("vm_a", 3), rate_gbps=2.0),
        _node("vm_b", DeficitRoundRobin(), _leaves("vm_b", 2),
              rate_gbps=3.0),
    ], priority=0)
    bulk = _node("bulk", WF2Qplus(), [
        _node("vm_c", StrictPriority(),
              [FlowQueue("vm_c.f0", priority=1),
               FlowQueue("vm_c.f1", priority=0)]),
        FlowQueue("bulk.f0", weight=2.0),
    ], priority=1)
    return _hierarchy(_node("root", StrictPriority(), [gold, bulk]))


def test_three_level_tree():
    digest = _simulate(three_level(), 0.004,
                       poisson={"vm_a.f1": 0.8, "vm_c.f1": 1.5})
    assert digest == GOLDEN["three_level"]


def test_drr_inner_nodes():
    root = _node("root", TokenBucket(), [
        _node(f"n{index}", DeficitRoundRobin(quantum_bytes=1000),
              _leaves(f"n{index}", 3, weight=1.0 + index),
              rate_gbps=1.0 + index)
        for index in range(3)])
    digest = _simulate(_hierarchy(root), 0.004, poisson={"n1.f2": 0.3})
    assert digest == GOLDEN["drr_inner"]


def test_strict_priority_inner_nodes():
    root = _node("root", WF2Qplus(), [
        _node(f"n{index}", StrictPriority(),
              [FlowQueue(f"n{index}.f{flow}", priority=flow)
               for flow in range(3)])
        for index in range(2)])
    digest = _simulate(_hierarchy(root), 0.004,
                       poisson={"n0.f0": 2.0, "n1.f0": 1.0, "n1.f1": 1.0})
    assert digest == GOLDEN["strict_inner"]


def test_wf2q_inner_nodes():
    root = _node("root", DeficitRoundRobin(quantum_bytes=700), [
        _node(f"n{index}", WF2Qplus(),
              _leaves(f"n{index}", 4, weight=float(index + 1)))
        for index in range(3)])
    digest = _simulate(_hierarchy(root), 0.004, poisson={"n2.f3": 0.5})
    assert digest == GOLDEN["wf2q_inner"]


def test_shaped_nodes_under_wf2q_root():
    """WF2Q+ over Token Bucket nodes: the root's finish times read each
    shaped node's head size."""
    root = _node("root", WF2Qplus(), [
        _node(f"n{index}", TokenBucket(default_burst_bytes=2000),
              _leaves(f"n{index}", 2, rate_bps=gbps(0.5 + index)))
        for index in range(3)])
    digest = _simulate(_hierarchy(root), 0.004)
    assert digest == GOLDEN["shaped_under_wf2q"]


def test_blocked_subtree_put_back():
    """A shaped node at the top priority of a work-conserving root: once
    its leaves run out of tokens the root's pick finds nothing to send
    and is put back untouched until the next send time."""
    shaped = _node("shaped", TokenBucket(default_burst_bytes=1500),
                   _leaves("shaped", 2, rate_bps=gbps(1.0)), priority=0)
    bulk = _node("bulk", WF2Qplus(), _leaves("bulk", 2), priority=1)
    root = _node("root", StrictPriority(), [shaped, bulk])
    digest = _simulate(_hierarchy(root), 0.003)
    assert digest == GOLDEN["blocked_subtree"]


def test_input_trigger():
    """Flat Token Bucket with the input trigger: tokens are charged per
    packet at arrival and re-enqueues take the head's stamped
    attributes."""
    def build(link_rate_bps, tracer, metrics):
        scheduler = PieoScheduler(TokenBucket(default_burst_bytes=3000),
                                  trigger=TriggerModel.INPUT,
                                  link_rate_bps=link_rate_bps,
                                  tracer=tracer, metrics=metrics)
        flows = [scheduler.add_flow(FlowQueue(f"f{index}",
                                              rate_bps=gbps(1.0 + index)))
                 for index in range(4)]
        return scheduler, flows
    digest = _simulate(build, 0.004, poisson={"f2": 2.5})
    assert digest == GOLDEN["input_trigger"]


def test_traced_three_level_tree():
    """The observed path: a streaming tracer and a metrics registry on
    the three-level tree pin the departures and the trace bytes."""
    sink = io.StringIO()
    tracer = Tracer(capacity=0, sink=sink)
    digest = _simulate(three_level(), 0.001,
                       poisson={"vm_a.f1": 0.8, "vm_c.f1": 1.5},
                       tracer=tracer, metrics=MetricsRegistry())
    assert digest == GOLDEN["traced_departures"]
    assert (hashlib.sha256(sink.getvalue().encode()).hexdigest()
            == GOLDEN["traced_jsonl"])

"""Tests for shared-buffer admission (repro.sim.buffer)."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import Tracer
from repro.sim import FlowQueue, Packet
from repro.sim.buffer import (BufferManager, LongestQueueDrop, RedDrop,
                              TailDrop, available_drop_policies,
                              get_drop_policy, make_drop_policy,
                              register_drop_policy)


def _pkt(flow_id, size=100):
    return Packet(flow_id=flow_id, size_bytes=size)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_lists_builtin_policies():
    names = available_drop_policies()
    assert {"tail-drop", "longest-queue", "red"} <= set(names)
    assert names == sorted(names)


def test_registry_instantiates_each_policy():
    assert isinstance(make_drop_policy("tail-drop"), TailDrop)
    assert isinstance(make_drop_policy("longest-queue"),
                      LongestQueueDrop)
    assert isinstance(make_drop_policy("red"), RedDrop)


def test_registry_unknown_name():
    with pytest.raises(ConfigurationError, match="unknown drop policy"):
        get_drop_policy("nope")


def test_registry_custom_registration():
    class MyPolicy(TailDrop):
        name = "mine"

    register_drop_policy("test-only", MyPolicy, description="x")
    try:
        assert isinstance(make_drop_policy("test-only"), MyPolicy)
    finally:
        from repro.sim.buffer import _DROP_POLICIES
        del _DROP_POLICIES["test-only"]


def test_buffer_accepts_policy_by_name_or_instance():
    assert isinstance(BufferManager(policy="red").policy, RedDrop)
    policy = LongestQueueDrop()
    assert BufferManager(policy=policy).policy is policy
    assert isinstance(BufferManager().policy, TailDrop)


# ----------------------------------------------------------------------
# Capacity accounting
# ----------------------------------------------------------------------
def test_global_byte_capacity_tail_drop():
    buffer = BufferManager(capacity_bytes=250)
    assert buffer.admit("p0", "f0", _pkt("f0"), 0.0)
    assert buffer.admit("p0", "f1", _pkt("f1"), 0.0)
    assert not buffer.admit("p0", "f2", _pkt("f2"), 0.0)
    assert buffer.admitted == 2
    assert buffer.dropped == 1
    assert buffer.total_bytes == 200
    assert buffer.total_pkts == 2
    assert buffer.drops_by_reason == {"buffer:bytes": 1}


def test_global_pkt_capacity():
    buffer = BufferManager(capacity_pkts=1)
    assert buffer.admit("p0", "f0", _pkt("f0"), 0.0)
    assert not buffer.admit("p0", "f0", _pkt("f0"), 0.0)
    assert buffer.drops_by_reason == {"buffer:pkts": 1}


def test_per_port_and_per_flow_carveouts():
    buffer = BufferManager(capacity_bytes=10_000, per_port_bytes=300,
                           per_flow_pkts=2)
    for _ in range(2):
        assert buffer.admit("p0", "f0", _pkt("f0"), 0.0)
    # Third packet for f0 violates the flow carve-out ...
    assert not buffer.admit("p0", "f0", _pkt("f0"), 0.0)
    assert buffer.drops_by_reason == {"flow:pkts": 1}
    # ... another flow on the same port hits the port carve-out ...
    assert buffer.admit("p0", "f1", _pkt("f1"), 0.0)
    assert not buffer.admit("p0", "f1", _pkt("f1"), 0.0)
    assert buffer.drops_by_reason == {"flow:pkts": 1, "port:bytes": 1}
    # ... while another port is unaffected.
    assert buffer.admit("p1", "f2", _pkt("f2"), 0.0)


def test_release_credits_occupancy_back():
    buffer = BufferManager(capacity_bytes=200)
    assert buffer.admit("p0", "f0", _pkt("f0"), 0.0)
    assert buffer.admit("p0", "f0", _pkt("f0"), 0.0)
    assert not buffer.admit("p0", "f0", _pkt("f0"), 0.0)
    buffer.release("p0", "f0", 100)
    assert buffer.admit("p0", "f0", _pkt("f0"), 0.0)
    assert buffer.total_pkts == 2


def test_release_underflow_raises():
    buffer = BufferManager(capacity_bytes=1000)
    buffer.admit("p0", "f0", _pkt("f0"), 0.0)
    buffer.release("p0", "f0", 100)
    with pytest.raises(ValueError, match="underflow"):
        buffer.release("p0", "f0", 100)


def test_invalid_capacities_rejected():
    with pytest.raises(ConfigurationError):
        BufferManager(capacity_bytes=0)
    with pytest.raises(ConfigurationError):
        BufferManager(per_flow_pkts=-1)


def test_occupancy_snapshot():
    buffer = BufferManager(capacity_bytes=1000)
    buffer.admit("p0", "f0", _pkt("f0"), 0.0)
    buffer.admit("p1", "f1", _pkt("f1", size=50), 0.0)
    snap = buffer.occupancy()
    assert snap["total_bytes"] == 150
    assert snap["total_pkts"] == 2
    assert snap["port_bytes"] == {"p0": 100, "p1": 50}
    assert snap["dropped"] == 0


# ----------------------------------------------------------------------
# Drop tracing
# ----------------------------------------------------------------------
def test_drop_events_carry_reason_and_port():
    tracer = Tracer()
    buffer = BufferManager(capacity_pkts=1, tracer=tracer)
    buffer.admit("p0", "f0", _pkt("f0"), 1.0)
    buffer.admit("p1", "f1", _pkt("f1"), 2.0)
    drops = [event for event in tracer.events if event.kind == "drop"]
    assert len(drops) == 1
    event = drops[0]
    assert event.time == 2.0
    assert event.fields["reason"] == "buffer:pkts"
    assert event.fields["port"] == "p1"
    assert event.fields["flow_id"] == "f1"


# ----------------------------------------------------------------------
# Longest-queue (push-out) policy
# ----------------------------------------------------------------------
def _lqd_buffer(capacity_bytes):
    buffer = BufferManager(capacity_bytes=capacity_bytes,
                           policy="longest-queue")
    queues = {}

    def attach(port_id):
        def resolver(flow_id):
            return queues.get((port_id, flow_id))
        buffer.attach_port(port_id, resolver)

    def admit(port_id, flow_id, size=100):
        packet = _pkt(flow_id, size)
        queue = queues.setdefault((port_id, flow_id),
                                  FlowQueue(flow_id))
        if buffer.admit(port_id, flow_id, packet, 0.0):
            queue.push(packet)
            return True
        return False

    return buffer, attach, admit, queues


def test_lqd_evicts_tail_of_longest_queue():
    buffer, attach, admit, queues = _lqd_buffer(capacity_bytes=400)
    attach("p0")
    attach("p1")
    for _ in range(3):
        assert admit("p0", "hog")
    assert admit("p1", "mouse")
    # Full.  A new arrival on p1 pushes out the hog's tail (the policy
    # trims the victim queue through the registered resolver).
    assert admit("p1", "mouse2")
    assert buffer.evicted == 1
    assert len(queues[("p0", "hog")]) == 2
    assert buffer.flow_pkts[("p0", "hog")] == 2
    assert buffer.drops_by_reason == {"evicted:longest-queue": 1}
    assert buffer.drops_by_port == {"p0": 1}


def test_lqd_never_strands_single_packet_queues():
    buffer, attach, admit, queues = _lqd_buffer(capacity_bytes=200)
    attach("p0")
    assert admit("p0", "a")
    assert admit("p0", "b")
    # Every queue has depth 1: no eligible victim, degrade to tail-drop.
    assert not admit("p0", "c")
    assert buffer.evicted == 0
    assert buffer.drops_by_reason == {"buffer:bytes": 1}


def test_lqd_respects_per_flow_carveout():
    # A flow exceeding its own carve-out must not push out others.
    buffer, attach, admit, queues = _lqd_buffer(capacity_bytes=10_000)
    buffer.per_flow_pkts = 2
    attach("p0")
    assert admit("p0", "greedy")
    assert admit("p0", "greedy")
    assert admit("p0", "other")
    assert admit("p0", "other")
    assert not admit("p0", "greedy")
    assert buffer.evicted == 0
    assert buffer.drops_by_reason == {"flow:pkts": 1}


def test_lqd_per_port_overflow_evicts_only_on_that_port():
    # Another port's longer queue cannot relieve this port's carve-out,
    # so it must not lose a packet to it.
    buffer, attach, admit, queues = _lqd_buffer(capacity_bytes=10_000)
    buffer.per_port_pkts = 2
    attach("p0")
    attach("p1")
    for _ in range(2):
        assert admit("p1", "c", size=1500)
        assert admit("p0", "a")
    assert admit("p0", "a")
    assert buffer.drops_by_port == {"p0": 1}
    assert buffer.drops_by_reason == {"evicted:longest-queue": 1}
    assert len(queues[("p1", "c")]) == 2
    assert len(queues[("p0", "a")]) == 2


def test_lqd_full_buffer_and_port_evicts_only_on_that_port():
    # Both the shared limit and p0's carve-out are full.  The shared
    # limit is reported first, but one p0 eviction relieves both, so
    # p1's longer queue must not lose a packet.
    buffer, attach, admit, queues = _lqd_buffer(capacity_bytes=None)
    buffer.capacity_pkts = 4
    buffer.per_port_pkts = 2
    attach("p0")
    attach("p1")
    for _ in range(2):
        assert admit("p1", "c", size=1500)
        assert admit("p0", "a")
    assert admit("p0", "a")
    assert buffer.drops_by_port == {"p0": 1}
    assert buffer.drops_by_reason == {"evicted:longest-queue": 1}
    assert len(queues[("p1", "c")]) == 2
    assert len(queues[("p0", "a")]) == 2


def test_drop_tail_guard_on_flow_queue():
    queue = FlowQueue("f")
    queue.push(_pkt("f"))
    with pytest.raises(ValueError, match="drop_tail"):
        queue.drop_tail()
    queue.push(_pkt("f"))
    dropped = queue.drop_tail()
    assert dropped.flow_id == "f"
    assert queue.packets_dropped == 1
    assert queue.bytes_dropped == 100
    assert len(queue) == 1
    assert queue.backlog_bytes == 100


# ----------------------------------------------------------------------
# RED policy
# ----------------------------------------------------------------------
def test_red_validates_parameters():
    with pytest.raises(ConfigurationError):
        RedDrop(min_fill=0.8, max_fill=0.4)
    with pytest.raises(ConfigurationError):
        RedDrop(max_probability=0.0)
    with pytest.raises(ConfigurationError):
        RedDrop(ewma_weight=1.5)


def test_red_forces_drops_above_max_fill():
    buffer = BufferManager(
        capacity_bytes=1000,
        policy=RedDrop(min_fill=0.1, max_fill=0.5, ewma_weight=1.0))
    # The EWMA with weight 1 tracks the instantaneous occupancy, so
    # once occupancy reaches max_fill (500 bytes) every further
    # arrival is force-dropped.
    for _ in range(7):
        buffer.admit("p0", "f0", _pkt("f0"), 0.0)
    assert not buffer.admit("p0", "f0", _pkt("f0"), 0.0)
    assert buffer.admitted == 5
    assert set(buffer.drops_by_reason) == {"red:forced"}
    assert buffer.drops_by_reason["red:forced"] == 3


def test_red_is_deterministic_across_runs():
    def run():
        buffer = BufferManager(capacity_bytes=2000, policy="red")
        outcomes = []
        for index in range(40):
            flow_id = f"f{index % 4}"
            admitted = buffer.admit("p0", flow_id, _pkt("f"), 0.0)
            outcomes.append(admitted)
            if admitted and index % 3 == 0:
                buffer.release("p0", flow_id, 100)
        return outcomes, buffer.drops_by_reason

    first = run()
    assert first == run()
    assert any(not admitted for admitted in first[0])  # RED did drop


def test_red_without_byte_capacity_is_passthrough():
    buffer = BufferManager(policy="red")
    for _ in range(100):
        assert buffer.admit("p0", "f0", _pkt("f0"), 0.0)
    assert buffer.dropped == 0

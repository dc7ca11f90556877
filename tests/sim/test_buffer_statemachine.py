"""Property-based state machines for BufferManager drop policies.

Hypothesis drives random admit/release interleavings against the
shared-buffer admission stage and checks, after every step, the
accounting invariants a real switch memory manager must never break:

* no occupancy counter ever goes negative;
* the three accounting granularities (global, per-port, per-flow)
  always agree with each other and with the ground-truth packet set;
* admitted / dropped / evicted totals balance against the number of
  operations issued;
* push-out (longest-queue drop) charges the hog — the first eviction
  always removes the tail of the queue that held the most bytes;
* RED is deterministic per seed: the same operation sequence against
  the same seed yields the same drop decisions;
* limits are read live: with limits changing between admissions, each
  admission decides on the limits as they stand at that instant.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.sim.buffer import BufferManager, RedDrop
from repro.sim.flow import FlowQueue
from repro.sim.packet import Packet

PORTS = [0, 1]
FLOWS = ["a", "b", "c"]

ports = st.sampled_from(PORTS)
flows = st.sampled_from(FLOWS)
sizes = st.integers(min_value=100, max_value=1500)


def _make_packet(flow_id, size):
    return Packet(flow_id=flow_id, size_bytes=size)


class TailDropMachine(RuleBasedStateMachine):
    """Tail-drop: every limit refusal leaves occupancy untouched."""

    def __init__(self):
        super().__init__()
        self.buffer = BufferManager(capacity_bytes=12_000,
                                    capacity_pkts=8,
                                    per_port_bytes=9_000,
                                    per_flow_bytes=6_000,
                                    policy="tail-drop")
        # Ground truth: sizes of packets currently resident.
        self.resident = {}
        self.attempts = 0

    @rule(port=ports, flow=flows, size=sizes)
    def admit(self, port, flow, size):
        self.attempts += 1
        before = (self.buffer.total_bytes, self.buffer.total_pkts)
        admitted = self.buffer.admit(port, flow,
                                     _make_packet(flow, size), now=0.0)
        if admitted:
            self.resident.setdefault((port, flow), []).append(size)
        else:
            # A tail-drop refusal must not move any occupancy.
            assert (self.buffer.total_bytes,
                    self.buffer.total_pkts) == before

    @precondition(lambda self: any(self.resident.values()))
    @rule(data=st.data())
    def release(self, data):
        key = data.draw(st.sampled_from(
            sorted(k for k, v in self.resident.items() if v)))
        size = self.resident[key].pop(0)
        self.buffer.release(key[0], key[1], size)

    @invariant()
    def accounting_never_negative(self):
        buf = self.buffer
        assert buf.total_bytes >= 0 and buf.total_pkts >= 0
        assert all(v >= 0 for v in buf.port_bytes.values())
        assert all(v >= 0 for v in buf.port_pkts.values())
        assert all(v >= 0 for v in buf.flow_bytes.values())
        assert all(v >= 0 for v in buf.flow_pkts.values())

    @invariant()
    def granularities_agree_with_ground_truth(self):
        buf = self.buffer
        want_bytes = sum(sum(v) for v in self.resident.values())
        want_pkts = sum(len(v) for v in self.resident.values())
        assert buf.total_bytes == want_bytes
        assert buf.total_pkts == want_pkts
        assert sum(buf.port_bytes.values()) == want_bytes
        assert sum(buf.flow_bytes.values()) == want_bytes
        assert sum(buf.port_pkts.values()) == want_pkts
        assert sum(buf.flow_pkts.values()) == want_pkts
        for (port, flow), packets in self.resident.items():
            assert buf.flow_bytes.get((port, flow), 0) == sum(packets)
            assert buf.flow_pkts.get((port, flow), 0) == len(packets)

    @invariant()
    def capacities_respected(self):
        buf = self.buffer
        assert buf.total_bytes <= buf.capacity_bytes
        assert buf.total_pkts <= buf.capacity_pkts
        assert all(v <= buf.per_port_bytes
                   for v in buf.port_bytes.values())
        assert all(v <= buf.per_flow_bytes
                   for v in buf.flow_bytes.values())

    @invariant()
    def totals_balance(self):
        buf = self.buffer
        assert buf.admitted + buf.dropped == self.attempts
        assert buf.evicted == 0  # tail-drop never pushes out
        assert buf.dropped == sum(buf.drops_by_reason.values())
        assert buf.dropped == sum(buf.drops_by_port.values())


class LongestQueueMachine(RuleBasedStateMachine):
    """Push-out: evictions are real drop_tail calls on live queues, so
    the queues themselves are the ground truth and the first victim of
    every make_room pass must be the pre-admit hog."""

    def __init__(self):
        super().__init__()
        self.buffer = BufferManager(capacity_bytes=8_000,
                                    capacity_pkts=6,
                                    policy="longest-queue")
        self.queues = {}
        for port in PORTS:
            self.buffer.attach_port(
                port,
                lambda fid, port=port: self.queues.get((port, fid)))
        self.attempts = 0

    def _queue(self, port, flow):
        key = (port, flow)
        if key not in self.queues:
            self.queues[key] = FlowQueue(flow)
        return self.queues[key]

    @rule(port=ports, flow=flows, size=sizes)
    def admit(self, port, flow, size):
        self.attempts += 1
        buf = self.buffer
        hog = buf.longest_queue(min_depth=2)
        hog_tail = hog[2].queue[-1].packet_id if hog else None
        evicted_before = buf.evicted
        packet = _make_packet(flow, size)
        if buf.admit(port, flow, packet, now=0.0):
            self._queue(port, flow).push(packet)
        if buf.evicted > evicted_before:
            # Push-out charged the hog: the queue that held the most
            # bytes before this arrival lost its tail packet.
            assert hog is not None
            assert hog_tail not in {
                resident.packet_id for resident in hog[2].queue}
            assert buf.drops_by_reason.get(
                "evicted:longest-queue", 0) > 0

    @precondition(lambda self: any(len(q) for q in
                                   self.queues.values()))
    @rule(data=st.data())
    def transmit(self, data):
        port, flow = data.draw(st.sampled_from(
            sorted(k for k, q in self.queues.items() if len(q))))
        packet = self.queues[(port, flow)].pop()
        self.buffer.release(port, flow, packet.size_bytes)

    @invariant()
    def queues_are_the_ground_truth(self):
        buf = self.buffer
        want_bytes = sum(q.backlog_bytes for q in self.queues.values())
        want_pkts = sum(len(q) for q in self.queues.values())
        assert buf.total_bytes == want_bytes
        assert buf.total_pkts == want_pkts
        assert sum(buf.port_bytes.values()) == want_bytes
        assert sum(buf.flow_bytes.values()) == want_bytes
        assert sum(buf.flow_pkts.values()) == want_pkts
        for (port, flow), queue in self.queues.items():
            assert buf.flow_bytes.get((port, flow), 0) == \
                queue.backlog_bytes
            assert buf.flow_pkts.get((port, flow), 0) == len(queue)

    @invariant()
    def accounting_never_negative(self):
        buf = self.buffer
        assert buf.total_bytes >= 0 and buf.total_pkts >= 0
        assert all(v >= 0 for v in buf.flow_bytes.values())
        assert all(v >= 0 for v in buf.flow_pkts.values())

    @invariant()
    def capacities_respected_after_pushout(self):
        assert self.buffer.total_bytes <= self.buffer.capacity_bytes
        assert self.buffer.total_pkts <= self.buffer.capacity_pkts

    @invariant()
    def totals_balance(self):
        buf = self.buffer
        # Every admitted packet is resident, transmitted, or evicted;
        # eviction counts both as a drop and against admitted.
        assert buf.admitted + buf.dropped - buf.evicted \
            == self.attempts
        assert buf.evicted == buf.drops_by_reason.get(
            "evicted:longest-queue", 0)


class RedDeterminismMachine(RuleBasedStateMachine):
    """Two RED buffers with the same seed, fed the same operations,
    must make identical drop decisions at every step."""

    def __init__(self):
        super().__init__()
        self.pair = [
            BufferManager(capacity_bytes=6_000,
                          policy=RedDrop(seed=7, min_fill=0.1,
                                         max_fill=0.6,
                                         max_probability=0.9))
            for _ in range(2)]
        self.resident = []

    @rule(port=ports, flow=flows, size=sizes)
    def admit(self, port, flow, size):
        verdicts = [buf.admit(port, flow, _make_packet(flow, size),
                              now=0.0) for buf in self.pair]
        assert verdicts[0] == verdicts[1], (
            "same seed, same sequence, different RED decision")
        if verdicts[0]:
            self.resident.append((port, flow, size))

    @precondition(lambda self: self.resident)
    @rule(data=st.data())
    def release(self, data):
        index = data.draw(st.integers(
            min_value=0, max_value=len(self.resident) - 1))
        port, flow, size = self.resident.pop(index)
        for buf in self.pair:
            buf.release(port, flow, size)

    @invariant()
    def twins_agree(self):
        first, second = self.pair
        assert first.total_bytes == second.total_bytes
        assert first.dropped == second.dropped
        assert first.drops_by_reason == second.drops_by_reason


#: Limit name -> values a rule may set it to (None lifts the limit).
LIMITS = {
    "capacity_bytes": st.one_of(st.none(),
                                st.integers(min_value=1_500,
                                            max_value=14_000)),
    "capacity_pkts": st.one_of(st.none(),
                               st.integers(min_value=1, max_value=10)),
    "per_port_bytes": st.one_of(st.none(),
                                st.integers(min_value=1_500,
                                            max_value=9_000)),
    "per_port_pkts": st.one_of(st.none(),
                               st.integers(min_value=1, max_value=6)),
    "per_flow_bytes": st.one_of(st.none(),
                                st.integers(min_value=1_500,
                                            max_value=6_000)),
    "per_flow_pkts": st.one_of(st.none(),
                               st.integers(min_value=1, max_value=4)),
}


def first_violation(buf, port, flow, size):
    """The model of the admission checks: the first limit (in the
    documented order) that one more ``size``-byte packet for ``(port,
    flow)`` would break, read from the buffer's limits as they are
    now; None if it fits."""
    key = (port, flow)
    checks = (
        ("buffer:pkts", buf.capacity_pkts, buf.total_pkts + 1),
        ("buffer:bytes", buf.capacity_bytes, buf.total_bytes + size),
        ("port:pkts", buf.per_port_pkts, buf.port_pkts.get(port, 0) + 1),
        ("port:bytes", buf.per_port_bytes,
         buf.port_bytes.get(port, 0) + size),
        ("flow:pkts", buf.per_flow_pkts, buf.flow_pkts.get(key, 0) + 1),
        ("flow:bytes", buf.per_flow_bytes,
         buf.flow_bytes.get(key, 0) + size),
    )
    for reason, limit, after in checks:
        if limit is not None and after > limit:
            return reason
    return None


class LiveLimitMachine(RuleBasedStateMachine):
    """Limits change between admissions: every admission must decide
    on the limits as they stand at that instant, never on values read
    when the buffer was built.  Tail-drop must match the model exactly;
    push-out must refuse exactly the flow carve-out violations and may
    evict its way past any other."""

    policy = "tail-drop"

    def __init__(self):
        super().__init__()
        self.buffer = BufferManager(capacity_bytes=12_000,
                                    policy=self.policy)
        self.queues = {}
        for port in PORTS:
            self.buffer.attach_port(
                port,
                lambda fid, port=port: self.queues.get((port, fid)))

    @rule(data=st.data(), name=st.sampled_from(sorted(LIMITS)))
    def change_limit(self, data, name):
        setattr(self.buffer, name, data.draw(LIMITS[name]))

    @rule(port=ports, flow=flows, size=sizes)
    def admit(self, port, flow, size):
        buf = self.buffer
        expected = first_violation(buf, port, flow, size)
        reasons_before = dict(buf.drops_by_reason)
        evicted_before = buf.evicted
        packet = _make_packet(flow, size)
        admitted = buf.admit(port, flow, packet, now=0.0)
        if admitted:
            self.queues.setdefault((port, flow), FlowQueue(flow)).push(
                packet)
            # Admission charged a packet that fit every live limit.
            key = (port, flow)
            for limit, value in (
                    (buf.capacity_pkts, buf.total_pkts),
                    (buf.capacity_bytes, buf.total_bytes),
                    (buf.per_port_pkts, buf.port_pkts[port]),
                    (buf.per_port_bytes, buf.port_bytes[port]),
                    (buf.per_flow_pkts, buf.flow_pkts[key]),
                    (buf.per_flow_bytes, buf.flow_bytes[key])):
                assert limit is None or value <= limit
        if expected is None:
            assert admitted and buf.evicted == evicted_before
            return
        if self.policy == "tail-drop" or expected.startswith("flow"):
            assert not admitted
            assert buf.evicted == evicted_before
            assert buf.drops_by_reason[expected] == \
                reasons_before.get(expected, 0) + 1

    @precondition(lambda self: any(len(q) for q in
                                   self.queues.values()))
    @rule(data=st.data())
    def transmit(self, data):
        port, flow = data.draw(st.sampled_from(
            sorted(k for k, q in self.queues.items() if len(q))))
        packet = self.queues[(port, flow)].pop()
        self.buffer.release(port, flow, packet.size_bytes)

    @invariant()
    def queues_are_the_ground_truth(self):
        buf = self.buffer
        assert buf.total_bytes == sum(q.backlog_bytes
                                      for q in self.queues.values())
        assert buf.total_pkts == sum(len(q) for q in self.queues.values())
        for (port, flow), queue in self.queues.items():
            assert buf.flow_pkts.get((port, flow), 0) == len(queue)


class LiveLimitPushOutMachine(LiveLimitMachine):
    policy = "longest-queue"


TestTailDropMachine = TailDropMachine.TestCase
TestLongestQueueMachine = LongestQueueMachine.TestCase
TestRedDeterminismMachine = RedDeterminismMachine.TestCase
TestLiveLimitMachine = LiveLimitMachine.TestCase
TestLiveLimitPushOutMachine = LiveLimitPushOutMachine.TestCase

for case in (TestTailDropMachine, TestLongestQueueMachine,
             TestRedDeterminismMachine, TestLiveLimitMachine,
             TestLiveLimitPushOutMachine):
    case.settings = settings(max_examples=40, stateful_step_count=40,
                             deadline=None)
# Left bound at module level, the loop variable would be collected as
# one more test case and run the last machine twice.
del case


def test_release_underflow_is_rejected():
    """Accounting can never be driven negative: over-releasing raises
    instead of silently corrupting the occupancy counters."""
    import pytest

    buffer = BufferManager(capacity_bytes=10_000)
    packet = _make_packet("a", 1000)
    assert buffer.admit(0, "a", packet, now=0.0)
    buffer.release(0, "a", 1000)
    before = buffer.occupancy()
    with pytest.raises(ValueError, match="underflow"):
        buffer.release(0, "a", 1000)
    assert buffer.occupancy() == before
    assert buffer.flow_pkts == {} and buffer.flow_bytes == {}


def test_refused_release_of_an_unknown_flow_changes_nothing():
    import pytest

    buffer = BufferManager(capacity_bytes=10_000)
    assert buffer.admit("p", "x", _make_packet("x", 1000), now=0.0)
    before = buffer.occupancy()
    flows_before = (buffer.flow_bytes, buffer.flow_pkts)
    for port, flow, size in (("p", "y", 1000), ("q", "x", 1000),
                             ("p", "x", 1001)):
        with pytest.raises(ValueError, match="underflow"):
            buffer.release(port, flow, size)
        assert buffer.occupancy() == before
        assert (buffer.flow_bytes, buffer.flow_pkts) == flows_before
    buffer.release("p", "x", 1000)
    assert buffer.total_pkts == 0 and buffer.total_bytes == 0


def test_red_different_seeds_may_disagree():
    """The seed is the only entropy source: drive a long identical
    sequence through seeds 1..20 and require at least two distinct
    drop counts (if all agree, the RNG is not actually consulted)."""
    counts = set()
    for seed in range(1, 21):
        buffer = BufferManager(
            capacity_bytes=6_000,
            policy=RedDrop(seed=seed, min_fill=0.1, max_fill=0.9,
                           max_probability=0.5))
        for step in range(40):
            buffer.admit(0, "a", _make_packet("a", 1000), now=0.0)
            # Hold occupancy around half-full so the EWMA sits inside
            # the probabilistic band rather than at 0 or saturation.
            while buffer.total_pkts > 3:
                buffer.release(0, "a", 1000)
        counts.add(buffer.dropped)
    assert len(counts) > 1

"""Differential test of the whole push-out path.

Random admit / send / depart / limit-change programs run against a
``longest-queue`` :class:`BufferManager` under random global, per-port
and per-flow limits, and against :class:`OracleBuffer` below: flat
per-``(port, flow)`` dicts in insertion order, the eviction loop that
re-checks every limit before each turn, and the full victim scan.
After every step the two must agree on the victims, the arrival's drop
reason, ``drops_by_reason``, ``occupancy()`` and the per-flow
snapshots (their order included).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer
from repro.sim.buffer import BufferManager
from repro.sim.flow import FlowQueue
from repro.sim.packet import Packet

# Ports 1 and "1" (and flows 3 and "3") stringify alike, so their keys
# tie on ``(-bytes, str(port), str(flow))``.  Port "dark" never attaches
# a resolver.
PORTS = (1, "1", "p2", "dark")
FLOWS = ("a", 3, "3")
SIZES = (64, 100, 1500)
LIMIT_NAMES = ("capacity_bytes", "capacity_pkts", "per_port_bytes",
               "per_port_pkts", "per_flow_bytes", "per_flow_pkts")
LIMIT_VALUES = {
    "capacity_bytes": st.one_of(st.none(), st.integers(1_500, 8_000)),
    "capacity_pkts": st.one_of(st.none(), st.integers(1, 10)),
    "per_port_bytes": st.one_of(st.none(), st.integers(1_500, 5_000)),
    "per_port_pkts": st.one_of(st.none(), st.integers(1, 6)),
    "per_flow_bytes": st.one_of(st.none(), st.integers(1_500, 4_000)),
    "per_flow_pkts": st.one_of(st.none(), st.integers(1, 4)),
}


class OracleBuffer:
    """Shared-buffer accounting and longest-queue push-out, written as
    flat dicts keyed by ``(port, flow)`` with a full victim scan."""

    def __init__(self, limits, queues, hidden):
        self.limits = dict(limits)
        self.queues = queues
        self.hidden = hidden
        self.total_bytes = self.total_pkts = 0
        self.port_bytes, self.port_pkts = {}, {}
        self.flow_bytes, self.flow_pkts = {}, {}
        self.admitted = self.dropped = self.dropped_bytes = 0
        self.evicted = 0
        self.drops_by_port, self.drops_by_reason = {}, {}
        self.drops = []  # (packet_id, reason, str(port)) in order

    def violated(self, port, flow, size):
        key = (port, flow)
        checks = (
            ("buffer:pkts", "capacity_pkts", self.total_pkts + 1),
            ("buffer:bytes", "capacity_bytes", self.total_bytes + size),
            ("port:pkts", "per_port_pkts",
             self.port_pkts.get(port, 0) + 1),
            ("port:bytes", "per_port_bytes",
             self.port_bytes.get(port, 0) + size),
            ("flow:pkts", "per_flow_pkts",
             self.flow_pkts.get(key, 0) + 1),
            ("flow:bytes", "per_flow_bytes",
             self.flow_bytes.get(key, 0) + size),
        )
        for reason, name, after in checks:
            limit = self.limits[name]
            if limit is not None and after > limit:
                return reason
        return None

    def port_overflows(self, port, size):
        limits = self.limits
        return ((limits["per_port_pkts"] is not None
                 and self.port_pkts.get(port, 0) + 1
                 > limits["per_port_pkts"])
                or (limits["per_port_bytes"] is not None
                    and self.port_bytes.get(port, 0) + size
                    > limits["per_port_bytes"]))

    def resolve(self, port, flow):
        if port == "dark" or (port, flow) in self.hidden:
            return None
        return self.queues[(port, flow)]

    def longest_queue(self, min_depth, only_port):
        best = best_key = None
        for (port, flow), occupied in self.flow_bytes.items():
            if only_port is not None and port != only_port:
                continue
            queue = self.resolve(port, flow)
            if queue is None or len(queue) < min_depth:
                continue
            sort_key = (-occupied, str(port), str(flow))
            if best_key is None or sort_key < best_key:
                best_key, best = sort_key, (port, flow)
        return best

    def make_room(self, port, flow, size, reason):
        if reason.startswith("flow"):
            return False
        port_reason = reason.startswith("port")
        carved = (self.limits["per_port_pkts"] is not None
                  or self.limits["per_port_bytes"] is not None)
        evicted = False
        while self.violated(port, flow, size) is not None:
            only_port = (port if port_reason or (
                carved and self.port_overflows(port, size)) else None)
            victim = self.longest_queue(2, only_port)
            if victim is None:
                return evicted
            packet_id, victim_size = self.queues[victim].pop()
            self.release(*victim, victim_size)
            self.evicted += 1
            self.note_drop(victim[0], packet_id, victim_size,
                           "evicted:longest-queue")
            evicted = True
        return evicted

    def admit(self, port, flow, packet_id, size):
        reason = self.violated(port, flow, size)
        if reason is not None and self.make_room(port, flow, size,
                                                 reason):
            reason = self.violated(port, flow, size)
        if reason is not None:
            self.note_drop(port, packet_id, size, reason)
            return False
        key = (port, flow)
        self.total_bytes += size
        self.total_pkts += 1
        self.port_bytes[port] = self.port_bytes.get(port, 0) + size
        self.port_pkts[port] = self.port_pkts.get(port, 0) + 1
        self.flow_bytes[key] = self.flow_bytes.get(key, 0) + size
        self.flow_pkts[key] = self.flow_pkts.get(key, 0) + 1
        self.admitted += 1
        return True

    def release(self, port, flow, size):
        key = (port, flow)
        self.total_bytes -= size
        self.total_pkts -= 1
        self.port_bytes[port] -= size
        self.port_pkts[port] -= 1
        self.flow_bytes[key] -= size
        self.flow_pkts[key] -= 1
        if not self.flow_pkts[key]:
            del self.flow_bytes[key], self.flow_pkts[key]

    def note_drop(self, port, packet_id, size, reason):
        self.dropped += 1
        self.dropped_bytes += size
        self.drops_by_port[port] = self.drops_by_port.get(port, 0) + 1
        self.drops_by_reason[reason] = \
            self.drops_by_reason.get(reason, 0) + 1
        self.drops.append((packet_id, reason, str(port)))

    def occupancy(self):
        return {
            "total_bytes": self.total_bytes,
            "total_pkts": self.total_pkts,
            "port_bytes": dict(self.port_bytes),
            "port_pkts": dict(self.port_pkts),
            "admitted": self.admitted,
            "dropped": self.dropped,
            "dropped_bytes": self.dropped_bytes,
            "evicted": self.evicted,
            "drops_by_port": dict(self.drops_by_port),
            "drops_by_reason": dict(self.drops_by_reason),
        }


# Mostly admissions, so the limits bind and push-out runs often.
OPS = st.lists(st.tuples(
    st.sampled_from(("admit",) * 6 + ("send", "depart", "limit")),
    st.sampled_from(PORTS), st.sampled_from(FLOWS),
    st.sampled_from(SIZES), st.integers(0, 7)),
    min_size=20, max_size=100)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), ops=OPS,
       limits=st.fixed_dictionaries(LIMIT_VALUES),
       hidden=st.sets(st.tuples(st.sampled_from(PORTS),
                                st.sampled_from(FLOWS)), max_size=3))
def test_pushout_matches_oracle(data, ops, limits, hidden):
    tracer = Tracer()
    buffer = BufferManager(policy="longest-queue", tracer=tracer,
                           **limits)
    queues = {(port, flow): FlowQueue(flow) for port in PORTS
              for flow in FLOWS}
    for port in PORTS[:-1]:
        buffer.attach_port(
            port, lambda flow, port=port: None if (port, flow) in hidden
            else queues[(port, flow)])
    # The oracle's queues hold (packet_id, size) in arrival order.
    oracle = OracleBuffer(limits, {key: [] for key in queues}, hidden)
    in_flight = []
    for op, port, flow, size, pick in ops:
        key = (port, flow)
        if op == "admit":
            packet = Packet(flow_id=flow, size_bytes=size)
            admitted = buffer.admit(port, flow, packet, 0.0)
            assert admitted == oracle.admit(port, flow, packet.packet_id,
                                            size)
            if admitted:
                queues[key].push(packet)
                oracle.queues[key].append((packet.packet_id, size))
        elif op == "send" and len(queues[key]):
            packet = queues[key].pop()
            assert (packet.packet_id, packet.size_bytes) == \
                oracle.queues[key].pop(0)
            in_flight.append((port, flow, packet.size_bytes))
        elif op == "depart" and in_flight:
            port, flow, sent = in_flight.pop(pick % len(in_flight))
            buffer.release(port, flow, sent)
            oracle.release(port, flow, sent)
        elif op == "limit":
            name = LIMIT_NAMES[pick % len(LIMIT_NAMES)]
            value = data.draw(LIMIT_VALUES[name])
            setattr(buffer, name, value)
            oracle.limits[name] = value
        drops = [(event.fields["packet_id"], event.fields["reason"],
                  event.fields["port"])
                 for event in tracer.events if event.kind == "drop"]
        assert drops == oracle.drops
        assert buffer.drops_by_reason == oracle.drops_by_reason
        assert buffer.occupancy() == oracle.occupancy()
        assert list(buffer.flow_bytes.items()) == \
            list(oracle.flow_bytes.items())
        assert list(buffer.flow_pkts.items()) == \
            list(oracle.flow_pkts.items())
        for queue_key, queue in queues.items():
            assert [(packet.packet_id, packet.size_bytes)
                    for packet in queue.queue] == \
                oracle.queues[queue_key]


def _lqd_buffer(**limits):
    buffer = BufferManager(policy="longest-queue", **limits)
    queues = {}
    for port in PORTS[:-1]:
        buffer.attach_port(port, lambda flow, port=port: queues.setdefault(
            (port, flow), FlowQueue(flow)))
    return buffer, queues


def _admit(buffer, queues, port, flow, size):
    packet = Packet(flow_id=flow, size_bytes=size)
    admitted = buffer.admit(port, flow, packet, 0.0)
    if admitted:
        queues.setdefault((port, flow), FlowQueue(flow)).push(packet)
    return admitted


def test_string_tie_goes_to_the_entry_created_first():
    """(1, "a") and ("1", "a") tie on bytes and on their strings; the
    entry created first loses its tail, though port "1" was seen
    first."""
    buffer, queues = _lqd_buffer(capacity_pkts=5)
    for port, flow in (("1", "z"), (1, "a"), (1, "a"), ("1", "a"),
                       ("1", "a")):
        assert _admit(buffer, queues, port, flow, 100)
    assert _admit(buffer, queues, "p2", "b", 100)
    assert buffer.drops_by_port == {1: 1}
    assert len(queues[(1, "a")]) == 1 and len(queues[("1", "a")]) == 2


def test_one_arrival_may_evict_several_packets():
    buffer, queues = _lqd_buffer(capacity_bytes=1000)
    for _ in range(5):
        assert _admit(buffer, queues, "p2", "a", 200)
    assert _admit(buffer, queues, 1, "b", 500)
    assert buffer.evicted == 3 and len(queues[("p2", "a")]) == 2
    assert buffer.total_bytes == 900

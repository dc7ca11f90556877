"""Push-out victim selection and per-flow buffer state.

``BufferManager.longest_queue`` filters on the buffer's own per-flow
depth and resolves only a candidate that would win.  It is checked
against the full scan it replaced, kept verbatim below as the oracle,
over random admit / transmit / depart / evict programs in which every
queued packet was admitted (what the ``Port`` wiring guarantees).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.fct import build_fct_fabric
from repro.sim.buffer import BufferManager
from repro.sim.flow import FlowQueue
from repro.sim.packet import Packet, reset_packet_ids


def scan_longest_queue(self, min_depth: int = 2, only_port=None):
    """The (port_id, flow_id, queue) holding the most buffered
    bytes among queues at least ``min_depth`` deep, on ``only_port``
    when one is given; None if no queue qualifies.  Ties break
    deterministically on the stringified (port, flow) key."""
    best = None
    best_key = None
    for (port_id, flow_id), occupied in self.flow_bytes.items():
        if occupied <= 0:
            continue
        if only_port is not None and port_id != only_port:
            continue
        resolver = self._resolvers.get(port_id)
        if resolver is None:
            continue
        queue = resolver(flow_id)
        if queue is None or len(queue) < min_depth:
            continue
        sort_key = (-occupied, str(port_id), str(flow_id))
        if best_key is None or sort_key < best_key:
            best_key = sort_key
            best = (port_id, flow_id, queue)
    return best


# Ports 1 and "1" (and flows 3 and "3") stringify alike, so their keys
# tie on ``(-bytes, str(port), str(flow))``.  Port "dark" never attaches
# a resolver.
PORTS = (1, "1", "p2", "dark")
FLOWS = ("a", "b", 3, "3")
SIZES = (64, 100, 1500)

OPS = st.lists(st.tuples(
    st.sampled_from(("admit", "admit", "send", "depart", "evict")),
    st.sampled_from(PORTS), st.sampled_from(FLOWS),
    st.sampled_from(SIZES), st.integers(0, 7)), max_size=60)


@settings(max_examples=200, deadline=None)
@given(ops=OPS, hidden=st.sets(st.tuples(st.sampled_from(PORTS),
                                          st.sampled_from(FLOWS))))
def test_longest_queue_matches_full_scan(ops, hidden):
    buffer = BufferManager()
    queues = {(port, flow): FlowQueue(flow) for port in PORTS
              for flow in FLOWS}
    for port in PORTS[:-1]:
        # Resolvers may return None: the port does not know the flow.
        buffer.attach_port(
            port, lambda flow, port=port: None if (port, flow) in hidden
            else queues[(port, flow)])
    in_flight = []
    for op, port, flow, size, pick in ops:
        queue = queues[(port, flow)]
        if op == "admit":
            packet = Packet(flow_id=flow, size_bytes=size)
            assert buffer.admit(port, flow, packet, 0.0)
            queue.push(packet)
        elif op == "send" and len(queue):
            # Dequeued for transmission: still charged until it departs.
            in_flight.append((port, flow, queue.pop()))
        elif op == "depart" and in_flight:
            port, flow, packet = in_flight.pop(pick % len(in_flight))
            buffer.release(port, flow, packet.size_bytes)
        elif op == "evict" and len(queue) >= 2:
            buffer.note_eviction(port, flow, queue.drop_tail(),
                                 reason="evicted:test")
        for min_depth in (1, 2, 3):
            for only_port in (None, *PORTS):
                assert buffer.longest_queue(min_depth, only_port) == \
                    scan_longest_queue(buffer, min_depth, only_port)
        assert buffer.flow_bytes.keys() == buffer.flow_pkts.keys()
        assert all(pkts > 0 for pkts in buffer.flow_pkts.values())


def test_release_deletes_emptied_entries():
    buffer = BufferManager()
    buffer.admit("p0", "f0", Packet(flow_id="f0", size_bytes=100), 0.0)
    buffer.admit("p0", "f0", Packet(flow_id="f0", size_bytes=100), 0.0)
    buffer.release("p0", "f0", 100)
    assert buffer.flow_pkts == {("p0", "f0"): 1}
    buffer.release("p0", "f0", 100)
    assert buffer.flow_pkts == {} and buffer.flow_bytes == {}


def test_fabric_run_leaves_no_empty_buffer_entries():
    reset_packet_ids(0)
    fabric = build_fct_fabric(0.5, duration=0.006)
    fabric.sim.run()
    buffers = [switch.dataplane.buffer
               for switch in fabric.switches.values()]
    assert sum(buffer.admitted for buffer in buffers) > 0
    for buffer in buffers:
        assert buffer.flow_bytes.keys() == buffer.flow_pkts.keys()
        assert all(pkts > 0 for pkts in buffer.flow_pkts.values())
        assert sum(buffer.flow_pkts.values()) == buffer.total_pkts

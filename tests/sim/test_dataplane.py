"""Tests for ports, classification, and the dataplane orchestrator."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, Tracer
from repro.sched import (DeficitRoundRobin, HierarchicalScheduler,
                         PieoScheduler, TokenBucket, WF2Qplus,
                         two_level_tree)
from repro.sim import (BufferManager, Dataplane, FlowQueue,
                       FnClassifier, HashClassifier, Link, Packet,
                       Simulator, StaticClassifier, TransmitEngine,
                       gbps)
from repro.sim.generators import BackloggedSource, CbrGenerator
from repro.sim.packet import MTU_BYTES, reset_packet_ids


# ----------------------------------------------------------------------
# Classifiers
# ----------------------------------------------------------------------
def test_static_classifier():
    classifier = StaticClassifier({"a": "p0", "b": "p1"})
    assert classifier.port_of("a") == "p0"
    assert classifier.port_of("b") == "p1"
    with pytest.raises(ConfigurationError):
        classifier.port_of("c")
    assert StaticClassifier({}, default="p9").port_of("c") == "p9"


def test_hash_classifier_is_stable_and_covers_ports():
    ports = ["p0", "p1", "p2"]
    classifier = HashClassifier(ports)
    mapping = {f"f{index}": classifier.port_of(f"f{index}")
               for index in range(64)}
    # Deterministic (CRC32, not salted builtin hash) ...
    assert mapping == {flow_id: HashClassifier(ports).port_of(flow_id)
                       for flow_id in mapping}
    # ... and reasonably spread.
    assert set(mapping.values()) == set(ports)
    with pytest.raises(ConfigurationError):
        HashClassifier([])


def test_fn_classifier():
    classifier = FnClassifier(lambda flow_id: f"p{flow_id % 2}")
    assert classifier.port_of(4) == "p0"
    assert classifier.port_of(5) == "p1"


# ----------------------------------------------------------------------
# Single port
# ----------------------------------------------------------------------
def test_single_port_dataplane_conservation_without_buffer():
    sim = Simulator()
    link = Link(gbps(10))
    scheduler = PieoScheduler(DeficitRoundRobin(),
                              link_rate_bps=link.rate_bps)
    dataplane = Dataplane(sim)
    dataplane.add_port("p0", scheduler=scheduler, link=link)
    scheduler.add_flow(FlowQueue("f"))
    CbrGenerator(sim, "f", dataplane.arrival_sink, rate_bps=gbps(4),
                 end_time=0.001).start(0.0)
    sim.run_until(0.002)
    conservation = dataplane.conservation()
    assert conservation["balanced"]
    assert conservation["drops"] == 0
    assert conservation["arrivals"] == conservation["departures"] \
        + conservation["residue"]


# ----------------------------------------------------------------------
# Multi-port routing and shared-buffer wiring
# ----------------------------------------------------------------------
def _two_port_dataplane(buffer=None, tracer=None, metrics=None):
    sim = Simulator()
    dataplane = Dataplane(
        sim, classifier=StaticClassifier({"a": "p0", "b": "p1"}),
        buffer=buffer, tracer=tracer, metrics=metrics)
    for port_id in ("p0", "p1"):
        dataplane.add_port(
            port_id,
            make_scheduler=lambda t, m: PieoScheduler(
                DeficitRoundRobin(), link_rate_bps=gbps(10),
                tracer=t, metrics=m),
            link_rate_bps=gbps(10))
    dataplane.ports["p0"].scheduler.add_flow(FlowQueue("a"))
    dataplane.ports["p1"].scheduler.add_flow(FlowQueue("b"))
    return sim, dataplane


def test_classifier_routes_flows_to_their_ports():
    sim, dataplane = _two_port_dataplane()
    for _ in range(3):
        dataplane.arrival_sink("a", Packet("a"))
        dataplane.arrival_sink("b", Packet("b"))
    sim.run_until(0.01)
    assert len(dataplane.ports["p0"].recorder) == 3
    assert len(dataplane.ports["p1"].recorder) == 3
    assert all(d.flow_id == "a" for d in
               dataplane.ports["p0"].recorder.departures)
    assert dataplane.departures() == 6


def test_multi_port_requires_classifier():
    sim = Simulator()
    dataplane = Dataplane(sim)
    for port_id in ("p0", "p1"):
        dataplane.add_port(
            port_id,
            make_scheduler=lambda t, m: PieoScheduler(
                DeficitRoundRobin(), link_rate_bps=gbps(10)),
            link_rate_bps=gbps(10))
    with pytest.raises(ConfigurationError, match="classifier"):
        dataplane.arrival_sink("a", Packet("a"))


def test_unknown_port_from_classifier_raises():
    sim = Simulator()
    dataplane = Dataplane(sim,
                          classifier=StaticClassifier({"a": "nope"}))
    dataplane.add_port(
        "p0",
        make_scheduler=lambda t, m: PieoScheduler(
            DeficitRoundRobin(), link_rate_bps=gbps(10)),
        link_rate_bps=gbps(10))
    with pytest.raises(ConfigurationError, match="unknown port"):
        dataplane.arrival_sink("a", Packet("a"))


def test_duplicate_port_id_rejected():
    sim = Simulator()
    dataplane = Dataplane(sim)
    dataplane.add_port(
        "p0",
        make_scheduler=lambda t, m: PieoScheduler(
            DeficitRoundRobin(), link_rate_bps=gbps(10)),
        link_rate_bps=gbps(10))
    with pytest.raises(ConfigurationError, match="duplicate"):
        dataplane.add_port(
            "p0",
            make_scheduler=lambda t, m: PieoScheduler(
                DeficitRoundRobin(), link_rate_bps=gbps(10)),
            link_rate_bps=gbps(10))


def test_shared_buffer_drops_and_conservation():
    buffer = BufferManager(capacity_pkts=2)
    sim, dataplane = _two_port_dataplane(buffer=buffer)
    for _ in range(6):
        dataplane.arrival_sink("a", Packet("a"))
        dataplane.arrival_sink("b", Packet("b"))
    conservation = dataplane.conservation()
    assert conservation["arrivals"] == 12
    assert conservation["drops"] == 10
    assert conservation["residue"] == 2
    assert conservation["balanced"]
    sim.run_until(0.01)
    final = dataplane.conservation()
    assert final["departures"] == 2
    assert final["residue"] == 0
    assert final["balanced"]
    # Transmissions credited occupancy back.
    assert buffer.total_bytes == 0


def test_buffer_released_on_departure_allows_later_arrivals():
    buffer = BufferManager(capacity_pkts=1)
    sim, dataplane = _two_port_dataplane(buffer=buffer)
    CbrGenerator(sim, "a", dataplane.arrival_sink, rate_bps=gbps(1),
                 end_time=0.001).start(0.0)
    sim.run_until(0.002)
    # At 1 Gbps offered vs 10 Gbps drained, each packet leaves long
    # before the next arrives: nothing is ever dropped.
    assert buffer.dropped == 0
    assert dataplane.conservation()["balanced"]
    assert len(dataplane.ports["p0"].recorder) > 10


def test_port_labels_on_trace_and_metrics():
    tracer = Tracer()
    metrics = MetricsRegistry()
    buffer = BufferManager(capacity_pkts=1, tracer=tracer,
                           metrics=metrics)
    sim, dataplane = _two_port_dataplane(buffer=buffer, tracer=tracer,
                                         metrics=metrics)
    for _ in range(2):
        dataplane.arrival_sink("a", Packet("a"))
        dataplane.arrival_sink("b", Packet("b"))
    sim.run_until(0.01)
    ports_seen = {event.fields.get("port")
                  for event in tracer.events_of("arrival")}
    assert ports_seen == {"p0", "p1"}
    drop_ports = {event.fields.get("port")
                  for event in tracer.events_of("drop")}
    assert drop_ports  # the 1-pkt buffer forced drops
    counters = metrics.snapshot()["counters"]
    assert counters["port.p0.engine.arrivals"] == 2
    assert counters["port.p1.engine.arrivals"] == 2
    assert "buffer.dropped" in counters


# ----------------------------------------------------------------------
# Multi-engine clock safety (advance_to guard)
# ----------------------------------------------------------------------
def test_advance_to_refused_with_two_engines():
    sim, dataplane = _two_port_dataplane()
    assert sim._clock_consumers == 2
    sim.run_until(0.0)  # establish a horizon of sorts

    refused = []

    def probe():
        refused.append(sim.advance_to(sim.now + 1e-6))

    sim.schedule(0.0, probe)
    sim.run_until(0.001)
    assert refused == [False]


def test_advance_to_allowed_with_single_engine():
    sim = Simulator()
    sim.register_clock_consumer()
    outcome = []
    sim.schedule(0.0, lambda: outcome.append(
        sim.advance_to(sim.now + 1e-6)))
    sim.run_until(0.001)
    assert outcome == [True]


def test_two_engine_output_identical_drain_on_and_off():
    """An unobserved run (drain enabled) and a metered one (drain off)
    of the same two-port dataplane depart identically."""
    def run(metrics):
        reset_packet_ids()
        sim, dataplane = _two_port_dataplane(metrics=metrics)
        assert all(port.engine.drain_enabled is (metrics is None)
                   for port in dataplane.ports.values())
        for flow_id in ("a", "b"):
            CbrGenerator(sim, flow_id, dataplane.arrival_sink,
                         rate_bps=gbps(8), end_time=0.001).start(0.0)
        sim.run_until(0.001)
        return [port.recorder.departures
                for port in dataplane.ports.values()]

    assert run(metrics=None) == run(metrics=MetricsRegistry())


def test_second_clock_consumer_sets_clock_shared():
    sim = Simulator()
    assert not sim.clock_shared
    sim.register_clock_consumer()
    assert not sim.clock_shared
    sim.register_clock_consumer()
    assert sim.clock_shared
    assert _two_port_dataplane()[0].clock_shared


def test_two_engines_on_shared_clock_never_enter_drain(monkeypatch):
    def refuse(self, now):
        raise AssertionError("drain entered on a shared clock")

    monkeypatch.setattr(TransmitEngine, "_drain", refuse)
    reset_packet_ids()
    sim, dataplane = _two_port_dataplane()
    for flow_id in ("a", "b"):
        CbrGenerator(sim, flow_id, dataplane.arrival_sink,
                     rate_bps=gbps(8), end_time=0.001).start(0.0)
    sim.run_until(0.001)
    assert dataplane.departures() > 0


def test_single_engine_drain_refused_tail_matches_event_loop():
    """A backlogged engine plus an unrelated ticker event every 5 us:
    the unobserved run's drain both advances and, whenever the ticker
    falls inside a transmission, hands over to its event-driven tail.
    Its departures, and what the ticker sees of them, equal those of a
    metered run, which takes the event-driven loop throughout."""
    def run(metrics):
        reset_packet_ids()
        sim = Simulator()
        scheduler = PieoScheduler(DeficitRoundRobin(),
                                  link_rate_bps=gbps(10))
        for flow_id in ("a", "b"):
            scheduler.add_flow(FlowQueue(flow_id))
        engine = TransmitEngine(sim, scheduler, Link(gbps(10)),
                                metrics=metrics)
        assert engine.drain_enabled == (metrics is None)
        for index in range(60):
            engine.arrival_sink("a", Packet("a"))
            engine.arrival_sink("b", Packet("b", size_bytes=700))

        seen = []

        def tick():
            seen.append((sim.now, len(engine.recorder.departures)))
            if sim.now < 100e-6:
                sim.post(sim.now + 5e-6, tick)

        sim.post(2.5e-6, tick)
        outcomes = []
        advance_to = sim.advance_to

        def counted(time):
            outcomes.append(advance_to(time))
            return outcomes[-1]

        sim.advance_to = counted
        sim.run_until(0.001)
        return engine.recorder.departures, seen, outcomes

    drained, drained_seen, outcomes = run(metrics=None)
    assert True in outcomes and False in outcomes
    reference, reference_seen, no_advances = run(
        metrics=MetricsRegistry())
    assert no_advances == []
    assert drained == reference
    assert drained_seen == reference_seen
    assert len(reference) == 120


def _backlog(sim, engine, flow_id):
    source = BackloggedSource(sim, flow_id, engine.arrival_sink, depth=2)
    engine.add_departure_listener(flow_id, source.on_departure)
    source.start(0.0)


def _flat_tb(rates_mbps, burst):
    """One flat Token Bucket port, one backlogged flow per rate."""
    def build(sim, link, metrics):
        scheduler = PieoScheduler(TokenBucket(default_burst_bytes=burst),
                                  link_rate_bps=link.rate_bps)
        engine = TransmitEngine(sim, scheduler, link, metrics=metrics)
        for index, rate in enumerate(rates_mbps):
            scheduler.add_flow(FlowQueue(f"f{index}", rate_bps=rate * 1e6))
            _backlog(sim, engine, f"f{index}")
        return engine
    return build


def _tb_over_wf2q(rates_mbps, burst, flows_per_node):
    """The Section 6.3 shape: Token Bucket node limits at the root, WF2Q+
    among each node's backlogged flows."""
    def build(sim, link, metrics):
        root, leaves = two_level_tree(
            TokenBucket(default_burst_bytes=burst),
            [WF2Qplus() for _ in rates_mbps], flows_per_node,
            node_rate_bps=[rate * 1e6 for rate in rates_mbps])
        scheduler = HierarchicalScheduler(root, link_rate_bps=link.rate_bps)
        engine = TransmitEngine(sim, scheduler, link, metrics=metrics)
        for leaf in leaves:
            _backlog(sim, engine, leaf.flow_id)
        return engine
    return build


def _run_against_ticker(build, period_ns, phase_ns, metrics=None,
                        duration=300e-6):
    """Run ``build``'s engine on a 10 Gbps link beside a ticker event
    every ``period_ns`` from ``phase_ns`` that records how many packets
    have departed.  Returns the departures, the ticker's view, and the
    outcome of each ``advance_to`` that crosses an idle gap (a target
    past the link's busy time, which a finish instant never is)."""
    reset_packet_ids()
    sim = Simulator()
    link = Link(gbps(10))
    engine = build(sim, link, metrics)
    assert engine.drain_enabled == (metrics is None)
    period, seen = period_ns * 1e-9, []

    def tick():
        seen.append((sim.now, len(engine.recorder.departures)))
        if sim.now + period < duration:
            sim.post(sim.now + period, tick)

    sim.post(phase_ns * 1e-9, tick)
    idle = []
    advance_to = sim.advance_to

    def counted(time):
        crossing = time > link.busy_until
        taken = advance_to(time)
        if crossing:
            idle.append(taken)
        return taken

    sim.advance_to = counted
    sim.run_until(duration, max_events=100_000)
    return engine.recorder.departures, seen, idle


def _assert_drain_matches_event_loop(build, period_ns, phase_ns):
    """The unobserved (drained) run equals a metered run, which takes
    the event-driven loop and its retry timer throughout; returns the
    drained run's idle-gap advance outcomes."""
    drained, drained_seen, idle = _run_against_ticker(
        build, period_ns, phase_ns)
    reference, reference_seen, no_advances = _run_against_ticker(
        build, period_ns, phase_ns, metrics=MetricsRegistry())
    assert no_advances == []
    assert drained == reference
    assert drained_seen == reference_seen
    assert reference
    return idle


@settings(max_examples=60, deadline=None)
@given(tree=st.booleans(),
       rates_mbps=st.lists(st.integers(100, 3_000), min_size=1,
                           max_size=4),
       burst=st.integers(700, 6_000), flows_per_node=st.integers(1, 3),
       period_ns=st.integers(1_000, 150_000),
       phase_ns=st.integers(0, 150_000))
def test_shaped_drain_matches_event_loop(tree, rates_mbps, burst,
                                         flows_per_node, period_ns,
                                         phase_ns):
    """Token Bucket shaping leaves the link idle between eligibility
    instants; the drain crosses those gaps itself unless the ticker (or
    the horizon) comes first, and nothing the ticker sees may change."""
    build = (_tb_over_wf2q(rates_mbps, burst, flows_per_node) if tree
             else _flat_tb(rates_mbps, burst))
    _assert_drain_matches_event_loop(build, period_ns, phase_ns)


@pytest.mark.parametrize("period_ns, taken", [(50_000, True),
                                               (1_000, False)])
def test_shaped_drain_idle_advance_taken_or_refused(period_ns, taken):
    """A 1 Gbps flow on a 10 Gbps link idles ~10.8 us per packet: a
    50 us ticker lets the drain cross most gaps, a 1 us one falls in
    every gap, so each crossing is refused and the retry timer waits."""
    idle = _assert_drain_matches_event_loop(_flat_tb([1_000], 1_500),
                                            period_ns, 0)
    assert taken in idle


class _HoldingScheduler:
    """Sends a packet only while another waits behind it, yet reports
    itself eligible now: a nominally eligible element that schedule()
    does not return, which the engine waits out until an arrival."""

    def __init__(self):
        self.queue = []

    def on_arrival(self, flow_id, packet, now):
        self.queue.append(packet)

    def schedule(self, now):
        return [self.queue.pop(0)] if len(self.queue) > 1 else []

    def next_eligible_time(self, now):
        return now if self.queue else math.inf


def test_drain_waits_for_an_arrival_when_eligible_now_sends_nothing():
    def build(sim, link, metrics):
        engine = TransmitEngine(sim, _HoldingScheduler(), link,
                                metrics=metrics)
        CbrGenerator(sim, "a", engine.arrival_sink,
                     rate_bps=gbps(3)).start(0.0)
        return engine

    assert _assert_drain_matches_event_loop(build, 7_000, 500) == []


# ----------------------------------------------------------------------
# Engine admission hook ordering
# ----------------------------------------------------------------------
def test_admission_refusal_keeps_scheduler_clean():
    """A dropped arrival must not reach the scheduler or its queues."""
    buffer = BufferManager(capacity_pkts=1)
    sim, dataplane = _two_port_dataplane(buffer=buffer)
    dataplane.arrival_sink("a", Packet("a"))
    dataplane.arrival_sink("a", Packet("a"))  # dropped
    queue = dataplane.ports["p0"].scheduler.flows["a"]
    assert len(queue) == 1
    assert queue.packets_enqueued == 1


def test_arrival_traced_before_drop():
    """Conservation audits require the arrival event to precede the
    drop event for the same packet."""
    tracer = Tracer()
    buffer = BufferManager(capacity_pkts=1, tracer=tracer)
    sim, dataplane = _two_port_dataplane(buffer=buffer, tracer=tracer)
    dataplane.arrival_sink("a", Packet("a"))
    dataplane.arrival_sink("a", Packet("a"))
    kinds = [event.kind for event in tracer.events
             if event.kind in ("arrival", "drop")]
    assert kinds == ["arrival", "arrival", "drop"]


def test_mtu_constant_unchanged():
    # The incast experiment's staggering math assumes the MTU constant.
    assert MTU_BYTES == 1500


# ----------------------------------------------------------------------
# Classification is per flow
# ----------------------------------------------------------------------
def _counting_dataplane():
    asked = []

    def port_of(flow_id):
        asked.append(flow_id)
        return "p0" if flow_id in ("a", "c") else "p1"

    sim = Simulator()
    dataplane = Dataplane(sim, classifier=FnClassifier(port_of))
    for port_id in ("p0", "p1"):
        dataplane.add_port(
            port_id,
            make_scheduler=lambda t, m: PieoScheduler(
                DeficitRoundRobin(), link_rate_bps=gbps(10)),
            link_rate_bps=gbps(10))
    for flow_id, port_id in (("a", "p0"), ("b", "p1"), ("c", "p0")):
        dataplane.ports[port_id].scheduler.add_flow(FlowQueue(flow_id))
    return sim, dataplane, asked


def test_classifier_is_asked_once_per_flow():
    sim, dataplane, asked = _counting_dataplane()
    for _ in range(5):
        for flow_id in ("a", "b", "c"):
            dataplane.arrival_sink(flow_id, Packet(flow_id))
    sim.run_until(0.01)
    assert sorted(asked) == ["a", "b", "c"]
    # Every packet still reached its flow's port.
    p0 = dataplane.ports["p0"].recorder.departures
    p1 = dataplane.ports["p1"].recorder.departures
    assert sorted({d.flow_id for d in p0}) == ["a", "c"]
    assert {d.flow_id for d in p1} == {"b"}
    assert dataplane.conservation() == {
        "arrivals": 15, "departures": 15, "drops": 0, "residue": 0,
        "balanced": True}


def test_adding_a_port_classifies_flows_afresh():
    sim, dataplane, asked = _counting_dataplane()
    dataplane.arrival_sink("a", Packet("a"))
    dataplane.add_port(
        "p2",
        make_scheduler=lambda t, m: PieoScheduler(
            DeficitRoundRobin(), link_rate_bps=gbps(10)),
        link_rate_bps=gbps(10))
    dataplane.arrival_sink("a", Packet("a"))
    assert asked == ["a", "a"]


def test_failed_classification_is_not_cached():
    sim = Simulator()
    dataplane = Dataplane(sim,
                          classifier=StaticClassifier({"a": "nope"}))
    dataplane.add_port(
        "p0",
        make_scheduler=lambda t, m: PieoScheduler(
            DeficitRoundRobin(), link_rate_bps=gbps(10)),
        link_rate_bps=gbps(10))
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="unknown port"):
            dataplane.arrival_sink("a", Packet("a"))
    assert dataplane.arrivals == 0

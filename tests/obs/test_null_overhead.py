"""Default-path regression: the null observers add no events and no
counter deltas anywhere in the stack.

This guards the observability layer's core claim (mirroring
``NullInstrumentation``): constructing schedulers/engines/simulators
*without* a tracer or metrics registry must leave the shared null
singletons untouched and produce byte-identical scheduling behaviour.
"""

from repro.core.backends import make_list
from repro.core.element import Element
from repro.core.instrumentation import NULL_INSTRUMENTATION
from repro.core.pieo import PieoHardwareList
from repro.obs import (NULL_METRICS, NULL_TRACER, MetricsRegistry,
                       NullMetrics, NullTracer, TracedList, Tracer)
from repro.sched import PieoScheduler, WF2Qplus
from repro.sim import (BackloggedSource, FlowQueue, Link, Simulator,
                       TransmitEngine, gbps)


def _run_small_sim(tracer=None, metrics=None):
    sim = Simulator(tracer=tracer)
    link = Link(gbps(10), tracer=tracer)
    scheduler = PieoScheduler(WF2Qplus(), link_rate_bps=link.rate_bps,
                              tracer=tracer, metrics=metrics)
    engine = TransmitEngine(sim, scheduler, link,
                            tracer=tracer, metrics=metrics)
    for index in range(3):
        flow = scheduler.add_flow(FlowQueue(f"f{index}"))
        source = BackloggedSource(sim, flow.flow_id, engine.arrival_sink,
                                  depth=2)
        engine.add_departure_listener(flow.flow_id, source.on_departure)
        source.start(0.0)
    sim.run_until(0.001)
    return engine


def test_default_components_share_the_null_singletons():
    engine = _run_small_sim()
    assert engine.tracer is NULL_TRACER
    assert engine.metrics is NULL_METRICS
    assert engine.sim.tracer is NULL_TRACER
    assert engine.link.tracer is NULL_TRACER
    assert engine.scheduler.tracer is NULL_TRACER


def test_null_observers_record_nothing_across_a_run():
    engine = _run_small_sim(tracer=NullTracer(), metrics=NullMetrics())
    assert engine.recorder.departures  # the sim actually ran
    assert NULL_TRACER.emitted == 0
    assert NULL_TRACER.counts == {}
    assert list(NULL_TRACER.events) == []
    assert NULL_METRICS.snapshot() == {}
    assert engine.metrics.to_dict() == {}


def test_null_and_real_observers_reach_identical_schedules():
    untraced = _run_small_sim()
    traced = _run_small_sim(tracer=Tracer(), metrics=MetricsRegistry())
    # packet_id is a process-global counter, so compare the schedule
    # itself: departure times, flow order, and sizes must match exactly.
    untraced_departures = [(d.time, d.flow_id, d.size_bytes)
                           for d in untraced.recorder.departures]
    traced_departures = [(d.time, d.flow_id, d.size_bytes)
                         for d in traced.recorder.departures]
    assert untraced_departures == traced_departures
    assert traced.tracer.emitted > 0


def test_traced_list_null_path_is_pure_delegation():
    traced = TracedList(make_list("reference", capacity=8))
    assert traced.tracer is NULL_TRACER
    assert traced.metrics is NULL_METRICS
    assert traced._observed is False
    traced.enqueue(Element("a", rank=1, send_time=0))
    traced.enqueue(Element("b", rank=2, send_time=0))
    assert traced.dequeue(now=0).flow_id == "a"
    assert traced.dequeue_flow("b").flow_id == "b"
    assert NULL_TRACER.emitted == 0
    assert NULL_METRICS.snapshot() == {}


def test_traced_list_observed_path_records_events_and_latency():
    tracer = Tracer()
    registry = MetricsRegistry()
    traced = TracedList(make_list("reference", capacity=8),
                        tracer=tracer, metrics=registry,
                        clock=lambda: 42.0)
    traced.enqueue(Element("a", rank=1, send_time=0))
    assert traced.dequeue(now=0).flow_id == "a"
    assert traced.dequeue(now=0) is None  # miss is traced too
    kinds = [event.kind for event in tracer.events]
    assert kinds == ["enqueue", "dequeue", "dequeue"]
    assert all(event.time == 42.0 for event in tracer.events)
    assert tracer.events[2].get("miss") is True
    snapshot = registry.to_dict()
    assert snapshot["histograms"]["backend.enqueue_us"]["count"] == 1
    assert snapshot["histograms"]["backend.dequeue_us"]["count"] == 2
    assert snapshot["gauges"]["backend.depth"]["max"] == 1


def test_traced_list_delegates_backend_extras():
    traced = TracedList(make_list("hardware", capacity=16))
    traced.enqueue(Element("a", rank=1, send_time=0))
    assert traced.counters.cycles > 0  # __getattr__ passthrough
    traced.check()  # hardware self-check reachable through the wrapper
    assert "a" in traced
    assert len(traced) == 1
    assert traced.capacity == 16


def test_null_instrumentation_alignment():
    """The obs null family and the hardware-model null instrumentation
    make the same promise: zero recorded state on the default path."""
    silent = PieoHardwareList(16, instrumentation=NULL_INSTRUMENTATION)
    silent.enqueue(Element("a", rank=1, send_time=0))
    silent.dequeue(now=0)
    assert silent.counters is NULL_INSTRUMENTATION
    assert silent.counters.snapshot() == {}

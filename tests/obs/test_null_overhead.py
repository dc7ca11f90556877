"""Default-path regression: the null observers add no events and no
counter deltas anywhere in the stack.

This guards the observability layer's core claim (mirroring
``NullInstrumentation``): constructing schedulers/engines/simulators
*without* a tracer or metrics registry must leave the shared null
singletons untouched and produce byte-identical scheduling behaviour.
"""

from repro.core.element import Element
from repro.core.instrumentation import NULL_INSTRUMENTATION
from repro.core.pieo import PieoHardwareList
from repro.obs import (NULL_METRICS, NULL_TRACER, MetricsRegistry,
                       NullMetrics, NullTracer, Tracer)
from repro.sched import PieoScheduler, WF2Qplus
from repro.sim import (BackloggedSource, FlowQueue, Link, Simulator,
                       TransmitEngine, gbps)


def _run_small_sim(tracer=None, metrics=None):
    sim = Simulator()
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


def test_null_instrumentation_alignment():
    """The obs null family and the hardware-model null instrumentation
    make the same promise: zero recorded state on the default path."""
    silent = PieoHardwareList(16, instrumentation=NULL_INSTRUMENTATION)
    silent.enqueue(Element("a", rank=1, send_time=0))
    silent.dequeue(now=0)
    assert silent.counters is NULL_INSTRUMENTATION
    assert silent.counters.snapshot() == {}

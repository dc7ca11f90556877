"""Default-path regression: ``None`` is the only "not observed".

Schedulers, engines, links and dataplanes built without a tracer or
metrics registry hold ``None`` (Python's null singleton) and skip every
observer call, and attaching observers must not change the schedule.
"""

from repro.obs import MetricsRegistry, Tracer
from repro.sched import PieoScheduler, WF2Qplus
from repro.sim import (BackloggedSource, Dataplane, FlowQueue, Link,
                       Simulator, TransmitEngine, gbps)


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
    assert engine.recorder.departures  # the sim actually ran
    assert engine.tracer is None
    assert engine.metrics is None
    assert engine.link.tracer is None
    assert engine.scheduler.tracer is None
    assert engine.scheduler.metrics is None
    dataplane = Dataplane(Simulator())
    for port_id in ("p0", "p1"):
        dataplane.add_port(
            port_id, link_rate_bps=gbps(10),
            make_scheduler=lambda tracer, metrics: PieoScheduler(
                WF2Qplus(), tracer=tracer, metrics=metrics))
    for port in dataplane.ports.values():
        assert port.engine.tracer is None
        assert port.engine.metrics is None
        assert port.engine.link.tracer is None
        assert port.engine.scheduler.tracer is None
        assert port.engine.scheduler.metrics is None


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

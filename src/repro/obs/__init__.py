"""Observability layer: tracing + metrics across sim/sched/core.

Zero-dependency event tracing (:mod:`repro.obs.trace`), aggregate
metrics (:mod:`repro.obs.metrics`), the sweep heartbeat
(:mod:`repro.obs.heartbeat`), offline trace analysis with per-packet
latency attribution (:mod:`repro.obs.analyze`), and Prometheus/Perfetto
exporters (:mod:`repro.obs.export`); ``python -m repro.obs`` is the
analysis CLI.

Typical wiring::

    from repro.obs import MetricsRegistry, Tracer

    tracer, metrics = Tracer(), MetricsRegistry()
    sim = Simulator()
    link = Link(gbps(40), tracer=tracer)
    scheduler = PieoScheduler(algo, tracer=tracer, metrics=metrics)
    engine = TransmitEngine(sim, scheduler, link,
                            tracer=tracer, metrics=metrics)
    ...
    tracer.write_jsonl("run.jsonl"); metrics.write_json("run.json")

Every instrumented component defaults to ``tracer=None, metrics=None``:
an unobserved component creates no instruments and skips every
observer call.
"""

from repro._lazy import lazy_namespace

_EXPORTS = {
    "repro.obs.analyze": ("FlowReport", "PacketTimeline", "Run",
                          "TraceAnalysis", "split_runs"),
    "repro.obs.export": ("flow_report_json", "perfetto_trace",
                         "prometheus_from_snapshot", "write_perfetto"),
    "repro.obs.heartbeat": ("NULL_HEARTBEAT", "NullSweepHeartbeat",
                            "SweepHeartbeat"),
    "repro.obs.metrics": ("BATCH_BUCKETS", "Counter", "DEPTH_BUCKETS",
                          "Gauge", "Histogram", "LATENCY_BUCKETS_US",
                          "LogHistogram", "MetricsRegistry",
                          "ScopedMetrics", "scoped"),
    "repro.obs.trace": ("EVENT_KINDS", "LabelledTracer", "TraceEvent",
                        "Tracer", "labelled", "read_jsonl"),
}

__all__, __getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)

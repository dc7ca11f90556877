"""Golden digests of whole metrics snapshots.

Each test runs a small metered simulation and compares the sha256 of
its :meth:`MetricsRegistry.to_dict` snapshot against a recorded digest,
so counters, gauge values and their exact min/max watermarks, and the
histograms must all come out the same whichever way the hot path
updates them.  The wall-clock ``engine.schedule_us`` histograms are
left out: they time the host, not the simulation.  The two runs cover a
hierarchy metered through one registry and a traced incast dataplane
whose ports meter through ``port.<id>``-scoped views of a shared one.
"""

from __future__ import annotations

import hashlib
import io
import json

from repro.experiments.hier_common import default_node_rates, run_hierarchy
from repro.experiments.incast import build_incast
from repro.obs import MetricsRegistry, Tracer
from repro.sim.events import Simulator
from repro.sim.packet import reset_packet_ids

# Recorded while every metric update was still a Counter/Gauge method
# call.
GOLDEN = {
    "hier": "5a47e0385feab2f459f1fcfb5b0b5f49216f9dadb67f85f37f11ebd54900a147",
    "incast":
        "a1a4f8c816ed48409108d9f7590e5d99c94750681fc58e6359e2755b162042b6",
}


def _digest(metrics: MetricsRegistry) -> str:
    snapshot = metrics.to_dict()
    snapshot["histograms"] = {
        name: histogram
        for name, histogram in snapshot["histograms"].items()
        if not name.endswith("engine.schedule_us")}
    text = json.dumps(snapshot, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def hier_metrics() -> MetricsRegistry:
    reset_packet_ids(0)
    metrics = MetricsRegistry()
    run_hierarchy(default_node_rates(), duration=0.002, metrics=metrics)
    return metrics


def incast_metrics() -> MetricsRegistry:
    reset_packet_ids(0)
    metrics = MetricsRegistry()
    sim = Simulator()
    build_incast(sim, buffer_bytes=64 * 1024, ports=4,
                 drop_policy="longest-queue", duration=0.001,
                 tracer=Tracer(capacity=0, sink=io.StringIO()),
                 metrics=metrics)
    sim.run_until(0.001)
    return metrics


def test_hier_metrics_match_golden():
    metrics = hier_metrics()
    assert metrics.to_dict()["counters"]["engine.departures"] > 0
    assert _digest(metrics) == GOLDEN["hier"]


def test_incast_metrics_match_golden():
    metrics = incast_metrics()
    snapshot = metrics.to_dict()
    assert snapshot["counters"]["buffer.evicted"] > 0
    assert snapshot["gauges"]["port.p0.engine.backlog_pkts"]["max"] > 0
    assert _digest(metrics) == GOLDEN["incast"]


if __name__ == "__main__":
    print({"hier": _digest(hier_metrics()),
           "incast": _digest(incast_metrics())})

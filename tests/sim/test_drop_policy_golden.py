"""Golden digests of every drop policy's admission decisions.

The perfbench digests and the trace goldens run ``longest-queue`` only.
These digests pin the other policies too, byte for byte: the
``incast_table`` text and its JSONL trace (every ``drop`` event with
its reason, port and packet id) for ``tail-drop``, ``longest-queue``
and ``red``, and a two-port dataplane (tail-drop and push-out) whose
buffer switches between shared, per-port and per-flow limits while it
runs.  A refactor of the admission path must leave all five unchanged.

Run this file as a script to print the digests of the current tree.
"""

from __future__ import annotations

import hashlib
import io

import pytest

from repro.experiments.incast import incast_table
from repro.obs import Tracer
from repro.sched import DeficitRoundRobin, PieoScheduler
from repro.sim import (BufferManager, Dataplane, FlowQueue, Simulator,
                       StaticClassifier, gbps)
from repro.sim.generators import CbrGenerator
from repro.sim.packet import reset_packet_ids

# Re-recorded when the simulator stopped tracing its own event queue:
# each trace is the previous one with its ``"scope":"sim"`` timer lines
# removed; the table and summary texts did not change.
GOLDEN = {
    "tail-drop":
        "4d240cab4c9b3fbacaa3186f625f272e3950aa7bf49e885ca43b05bb36df7ca2",
    "longest-queue":
        "86333ea19fc386008146b7c84e89e1f06a4fb26bd5a1f77d755214ed5c9f6c84",
    "red":
        "3c54f7f027bbd3f75a28f5ad8236f2af6234f87bae6975043849f859565bf7be",
    "carve-outs:tail-drop":
        "ac2feda58825944e9d2fad23ba41296b67d79c3f23ba8973f82ab21bcdba3d44",
    "carve-outs:longest-queue":
        "4c6eb1a7e5cc143b08aa73b7c088e7930940bd6058c0a149e2d3728518d4abd0",
}

#: Drop reasons for the six buffer limits.
REASONS = ("buffer:bytes", "buffer:pkts", "port:bytes", "port:pkts",
           "flow:bytes", "flow:pkts")

#: ``incast_table`` sweep: a buffer that drops hard and one that
#: drops a little.
SWEEP = (8, 32)
DURATION = 0.001


def _digest(*texts: str) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def incast_run(policy: str) -> tuple:
    """``(table text, trace jsonl)`` of a small traced incast sweep."""
    reset_packet_ids(0)
    sink = io.StringIO()
    tracer = Tracer(capacity=0, sink=sink)
    table = incast_table(buffer_kib_sweep=SWEEP, duration=DURATION,
                         drop_policy=policy, tracer=tracer)
    return table.to_text(), sink.getvalue()


#: The carve-out run's limits, phase by phase: each phase sets all six
#: limits (None lifts one), so the run reaches every drop reason and
#: the admission path must read the limits live.
PHASES = (
    dict(capacity_bytes=24_000, capacity_pkts=None, per_port_bytes=None,
         per_port_pkts=None, per_flow_bytes=None, per_flow_pkts=None),
    dict(capacity_bytes=None, capacity_pkts=16, per_port_bytes=None,
         per_port_pkts=None, per_flow_bytes=None, per_flow_pkts=None),
    dict(capacity_bytes=30_000, capacity_pkts=30, per_port_bytes=12_000,
         per_port_pkts=None, per_flow_bytes=None, per_flow_pkts=None),
    dict(capacity_bytes=None, capacity_pkts=30, per_port_bytes=None,
         per_port_pkts=9, per_flow_bytes=None, per_flow_pkts=None),
    dict(capacity_bytes=30_000, capacity_pkts=None, per_port_bytes=20_000,
         per_port_pkts=None, per_flow_bytes=5_000, per_flow_pkts=None),
    dict(capacity_bytes=None, capacity_pkts=None, per_port_bytes=None,
         per_port_pkts=None, per_flow_bytes=None, per_flow_pkts=4),
)


def carve_out_run(policy: str) -> tuple:
    """``(summary text, trace jsonl, buffer)`` of a two-port dataplane
    whose buffer limits change phase by phase (see :data:`PHASES`)."""
    reset_packet_ids(0)
    sink = io.StringIO()
    tracer = Tracer(capacity=0, sink=sink)
    sim = Simulator()
    buffer = BufferManager(policy=policy, tracer=tracer, **PHASES[0])
    flows = {"p0": ["a", "b", "c"], "p1": ["d", "e"]}
    dataplane = Dataplane(
        sim, classifier=StaticClassifier(
            {flow: port for port, ids in flows.items() for flow in ids}),
        buffer=buffer, tracer=tracer)
    for port_id, flow_ids in flows.items():
        dataplane.add_port(
            port_id,
            make_scheduler=lambda t, m: PieoScheduler(
                DeficitRoundRobin(), link_rate_bps=gbps(10), tracer=t,
                metrics=m),
            link_rate_bps=gbps(10))
        for index, flow_id in enumerate(flow_ids):
            dataplane.ports[port_id].scheduler.add_flow(
                FlowQueue(flow_id))
            # Unequal rates and packet sizes: per-flow and per-port
            # carve-outs fill at different times.
            CbrGenerator(sim, flow_id, dataplane.arrival_sink,
                         rate_bps=gbps(3 + 2 * index),
                         size_bytes=600 + 300 * index,
                         end_time=DURATION).start(index * 1e-7)

    def set_limits(limits):
        for name, value in limits.items():
            setattr(buffer, name, value)

    for phase, limits in enumerate(PHASES[1:], start=1):
        sim.post(phase * DURATION / len(PHASES),
                 lambda limits=limits: set_limits(limits))
    sim.run_until(DURATION)
    conservation = dataplane.conservation()
    assert conservation["balanced"]
    departures = [(port_id, departure) for port_id, port
                  in dataplane.ports.items()
                  for departure in port.recorder.departures]
    summary = "\n".join([
        repr(sorted(conservation.items())),
        repr(sorted(buffer.drops_by_reason.items())),
        repr(sorted(buffer.drops_by_port.items())),
        repr((buffer.admitted, buffer.dropped, buffer.evicted,
              buffer.dropped_bytes)),
        *(repr(item) for item in departures)])
    return summary, sink.getvalue(), buffer


@pytest.mark.parametrize("policy", ["tail-drop", "longest-queue", "red"])
def test_incast_policy_matches_golden(policy):
    text, trace = incast_run(policy)
    assert '"kind":"drop"' in trace
    assert _digest(text, trace) == GOLDEN[policy]


@pytest.mark.parametrize("policy", ["tail-drop", "longest-queue"])
def test_carve_out_dataplane_matches_golden(policy):
    summary, trace, buffer = carve_out_run(policy)
    # Every limit is reached at some phase, so each admission check is
    # under the digest.  Push-out evicts its way past every shared or
    # per-port refusal and only refuses on a flow's own carve-out.
    reasons = set(buffer.drops_by_reason)
    if policy == "tail-drop":
        assert set(REASONS) <= reasons, reasons
    else:
        assert reasons == {"flow:bytes", "flow:pkts",
                           "evicted:longest-queue"}, reasons
    assert _digest(summary, trace) == GOLDEN[f"carve-outs:{policy}"]


if __name__ == "__main__":
    digests = {policy: _digest(*incast_run(policy))
               for policy in ("tail-drop", "longest-queue", "red")}
    for policy in ("tail-drop", "longest-queue"):
        summary, trace, buffer = carve_out_run(policy)
        digests[f"carve-outs:{policy}"] = _digest(summary, trace)
        print(policy, sorted(buffer.drops_by_reason.items()))
    print(digests)

"""Incast re-expressed as a two-tier fabric scenario.

The single-switch :mod:`repro.experiments.incast` experiment drives 8
CBR senders (2.5 Gbps each) into one 10 Gbps output port of a shared
buffer.  This experiment builds the *same* contention point out of
:mod:`repro.net` parts: 8 sender hosts on 10 Gbps access links into an
aggregation switch, a 40 Gbps trunk down to a top-of-rack switch, and
one receiver host on a 10 Gbps link.  The trunk carries the full
20 Gbps offered load without loss; the ToR's receiver-facing port is
2x oversubscribed, so its shared buffer is where the incast lands —
exactly the hot port of the single-switch experiment, one hop deeper.

Cross-check (asserted by the integration test, stated in the table
note): sweeping the ToR buffer reproduces the single-switch shape —
the hot link saturates at ~10 Gbps goodput regardless of memory, and
drops fall monotonically as the buffer grows.  The aggregation switch
drops nothing.
"""

from __future__ import annotations

import io
from typing import Optional, Sequence, Tuple

from repro.experiments.runner import Table, point_seed, run_sweep
from repro.net.fabric import Fabric
from repro.net.topology import Topology
from repro.obs import Tracer
from repro.obs.heartbeat import NULL_HEARTBEAT
from repro.sim.generators import CbrGenerator
from repro.sim.link import gbps
from repro.sim.packet import MTU_BYTES, reset_packet_ids

#: Mirror the single-switch incast constants.
SENDERS = 8
SENDER_GBPS = 2.5
ACCESS_GBPS = 10.0
TRUNK_GBPS = 40.0
DEFAULT_BUFFER_KIB = (8, 16, 32, 64, 128)
RECEIVER = "recv"
TOR = "tor"
AGG = "agg"


def incast_fabric_topology(senders: int = SENDERS) -> Topology:
    """senders -> agg -> tor -> recv, oversubscribed at tor->recv."""
    topology = Topology()
    topology.add_switch(AGG)
    topology.add_switch(TOR)
    topology.add_host(RECEIVER)
    topology.add_link(TOR, RECEIVER, rate_bps=gbps(ACCESS_GBPS))
    topology.add_link(AGG, TOR, rate_bps=gbps(TRUNK_GBPS))
    for index in range(senders):
        name = f"s{index}"
        topology.add_host(name)
        topology.add_link(name, AGG, rate_bps=gbps(ACCESS_GBPS))
    return topology


def build_fabric_incast(buffer_bytes: int,
                        drop_policy: str = "tail-drop",
                        algorithm: str = "drr",
                        duration: float = 0.002,
                        backend: Optional[str] = None,
                        tracer=None, metrics=None) -> Fabric:
    """Wire the 2-tier incast fabric and start its CBR senders."""
    fabric = Fabric(incast_fabric_topology(), algorithm=algorithm,
                    backend=backend,
                    buffer_bytes=buffer_bytes, drop_policy=drop_policy,
                    tracer=tracer, metrics=metrics)
    for index in range(SENDERS):
        flow_id, sink = fabric.stream(f"s{index}", RECEIVER,
                                      sport=index + 1, dport=1)
        generator = CbrGenerator(fabric.sim, flow_id, sink,
                                 rate_bps=gbps(SENDER_GBPS),
                                 size_bytes=MTU_BYTES,
                                 end_time=duration)
        # Same stagger as the single-switch incast: one access-link
        # MTU-time apart, so arrivals interleave instead of bursting.
        generator.start(index * MTU_BYTES * 8 / gbps(ACCESS_GBPS))
    return fabric


def _fabric_incast_point(spec: Tuple, tracer=None,
                         metrics=None) -> Tuple[dict, str]:
    """One sweep point (module-level: picklable for ``--jobs``)."""
    (index, buffer_kib, drop_policy, algorithm, backend, duration,
     traced) = spec
    reset_packet_ids(point_seed(index))
    sink = None
    if tracer is None and traced:
        sink = io.StringIO()
        tracer = Tracer(capacity=0, sink=sink)
    fabric = build_fabric_incast(buffer_bytes=buffer_kib * 1024,
                                 drop_policy=drop_policy,
                                 algorithm=algorithm, duration=duration,
                                 backend=backend,
                                 tracer=tracer, metrics=metrics)
    fabric.sim.run()
    conservation = fabric.conservation()
    if not conservation["balanced"]:
        raise AssertionError(
            f"fabric conservation violated at buffer={buffer_kib}KiB: "
            f"{conservation}")
    tor = fabric.switches[TOR]
    agg = fabric.switches[AGG]
    tor_snapshot = tor.conservation()
    stats = {
        "arrivals": tor_snapshot["arrivals"],
        "delivered": fabric.hosts[RECEIVER].received_pkts,
        "drops": tor_snapshot["drops"],
        "agg_drops": agg.conservation()["drops"],
        "hot_drops": tor.dataplane.buffer.drops_by_port.get(
            RECEIVER, 0),
        "goodput_gbps": fabric.hosts[RECEIVER].received_bytes * 8
        / duration / 1e9,
    }
    return stats, sink.getvalue() if sink is not None else ""


def fabric_incast_table(
        buffer_kib_sweep: Sequence[int] = DEFAULT_BUFFER_KIB,
        drop_policy: str = "tail-drop", algorithm: str = "drr",
        duration: float = 0.002, backend: Optional[str] = None,
        tracer=None, metrics=None,
        jobs: int = 1, heartbeat=None) -> Table:
    """Incast drops vs ToR buffer size on the 2-tier fabric.

    Sweep mechanics (seeded points, ``--jobs`` byte-identity, traced
    shard merge) match :func:`repro.experiments.incast.incast_table`;
    the table is directly comparable to the single-switch one.
    """
    table = Table(
        title=(f"Fabric incast: {SENDERS} hosts -> {AGG} -> {TOR} -> "
               f"{RECEIVER} (2x oversubscribed at {TOR}->{RECEIVER}), "
               f"policy={drop_policy}, algorithm={algorithm}"),
        headers=["buffer_kib", "arrivals", "delivered", "drops",
                 "hot_drops", "agg_drops", "goodput_gbps", "drop_pct"],
    )
    specs = [(index, buffer_kib, drop_policy, algorithm, backend,
              duration, tracer is not None)
             for index, buffer_kib in enumerate(buffer_kib_sweep)]
    sharded = jobs > 1 and metrics is None
    if sharded:
        outcomes = run_sweep(_fabric_incast_point, specs, jobs=jobs,
                             heartbeat=heartbeat)
        if tracer is not None:
            for spec, (_, lines) in zip(specs, outcomes):
                tracer.mark(0.0, "fabric_incast.sweep",
                            buffer_kib=spec[1], drop_policy=drop_policy)
                tracer.absorb_jsonl(lines.splitlines())
    else:
        pulse = heartbeat if heartbeat is not None else NULL_HEARTBEAT
        pulse.begin(len(specs), jobs=1)
        outcomes = []
        for spec in specs:
            if tracer is not None:
                tracer.mark(0.0, "fabric_incast.sweep",
                            buffer_kib=spec[1], drop_policy=drop_policy)
            with pulse.point(spec[0]):
                outcomes.append(_fabric_incast_point(
                    spec, tracer=tracer, metrics=metrics))
        pulse.finish()
    for spec, (stats, _) in zip(specs, outcomes):
        drop_pct = (100.0 * stats["drops"] / stats["arrivals"]
                    if stats["arrivals"] else 0.0)
        table.add_row(spec[1], stats["arrivals"], stats["delivered"],
                      stats["drops"], stats["hot_drops"],
                      stats["agg_drops"],
                      round(stats["goodput_gbps"], 4),
                      round(drop_pct, 2))
    table.add_note("Same contention as the single-switch incast, one "
                   "hop deeper: the trunk carries 20 Gbps loss-free "
                   f"(agg_drops stays 0) and the {TOR}->{RECEIVER} "
                   f"port tops out at ~{ACCESS_GBPS} Gbps goodput; "
                   "drops fall monotonically with buffer size.")
    return table

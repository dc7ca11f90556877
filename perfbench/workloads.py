"""The five benchmark workloads.

Each workload calls the repo's public builders at their default
settings (list backend, event queue, batched drain), so a later change
of a default is measured without touching this file.  A size is a fixed
amount of simulated work, not a fixed time; ``scale`` shrinks it for
the call-counting pass and for tests.

Seed 0 is the paper configuration.  Other seeds permute ``hier``'s node
rates, draw ``wide``'s weights and drive ``fabric``'s RNG; ``incast``
is deterministic.  Every run returns an :class:`Outcome` whose digest
is compared with ``golden.json`` and whose invariants are checked.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List

#: Output-rate tolerance of the hierarchy's token buckets (percent), on
#: top of a packet at each end of the measuring window.
MAX_NODE_RATE_ERROR_PCT = 5.0


@dataclass
class Outcome:
    """What one run produced, reduced to what the benchmark checks."""

    #: Packets handled at a scheduling port (the rate's numerator).
    packets: int
    #: sha256 of the departures (or of the flow completion times).
    digest: str
    #: Simulated results, printed next to the metrics.
    outputs: Dict[str, float]
    #: Failed output checks; empty when the run is correct.
    problems: List[str]
    events_fired: int
    #: Shared buffers, for admission counts.
    buffers: list = field(default_factory=list)
    trace_events: int = 0
    hops_per_pkt: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str
    size: str
    #: Simulated seconds of arrivals at scale 1.
    duration: float
    run: Callable[[int, float], Outcome]


def _departure_digest(recorders) -> str:
    digest = hashlib.sha256()
    for label, recorder in recorders:
        for departure in recorder.departures:
            digest.update(
                f"{label},{departure.time!r},{departure.flow_id},"
                f"{departure.size_bytes},{departure.packet_id}\n".encode())
    return digest.hexdigest()


def _node_rates(seed: int) -> List[float]:
    from repro.experiments.hier_common import default_node_rates
    rates = default_node_rates()
    if seed:
        random.Random(seed).shuffle(rates)
    return rates


def _hier_outcome(run, rates: List[float], trace_events: int = 0):
    from repro.experiments.hier_common import WARMUP_FRACTION
    from repro.sim.link import gbps
    from repro.sim.packet import MTU_BYTES
    # A packet more or less at each end of the window is not an error.
    slack_bps = 2 * MTU_BYTES * 8 / (run.duration * (1 - WARMUP_FRACTION))
    problems = []
    errors = []
    for index, rate in enumerate(rates):
        error = abs(run.node_rates_bps.get(f"n{index}", 0.0) - gbps(rate))
        errors.append(error / gbps(rate) * 100)
        if error > gbps(rate) * MAX_NODE_RATE_ERROR_PCT / 100 + slack_bps:
            problems.append(f"node n{index} rate is off by "
                            f"{errors[-1]:.2f}%")
    worst = max(errors)
    return Outcome(packets=len(run.engine.recorder),
                   digest=_departure_digest([("", run.engine.recorder)]),
                   outputs={"node_rate_error_pct": worst},
                   problems=problems, events_fired=run.sim.events_fired,
                   trace_events=trace_events)


def run_hier(seed: int, duration: float) -> Outcome:
    from repro.experiments.hier_common import run_hierarchy
    from repro.sim.packet import reset_packet_ids
    reset_packet_ids(0)
    rates = _node_rates(seed)
    return _hier_outcome(run_hierarchy(rates, duration=duration), rates)


def run_hier_traced(seed: int, duration: float) -> Outcome:
    from repro.experiments.hier_common import run_hierarchy
    from repro.obs import MetricsRegistry, Tracer
    from repro.sim.packet import reset_packet_ids
    reset_packet_ids(0)
    rates = _node_rates(seed)
    tracer = Tracer.open_jsonl(os.devnull)
    try:
        run = run_hierarchy(rates, duration=duration, tracer=tracer,
                            metrics=MetricsRegistry())
    finally:
        tracer.close()
    return _hier_outcome(run, rates, trace_events=tracer.emitted)


#: ``wide``: flows on one 40 Gbps port and the weights drawn for them.
WIDE_FLOWS = 4096
WIDE_WEIGHTS = (1, 2, 4)


def run_wide(seed: int, duration: float) -> Outcome:
    from repro.sched.framework import PieoScheduler
    from repro.sched.wf2q import WF2Qplus
    from repro.sim.engine import TransmitEngine
    from repro.sim.events import Simulator
    from repro.sim.flow import FlowQueue
    from repro.sim.generators import BackloggedSource
    from repro.sim.link import Link, gbps
    from repro.sim.packet import reset_packet_ids
    reset_packet_ids(0)
    rng = random.Random(seed)
    sim = Simulator()
    link = Link(gbps(40.0))
    scheduler = PieoScheduler(WF2Qplus(), link_rate_bps=link.rate_bps)
    engine = TransmitEngine(sim, scheduler, link)
    for index in range(WIDE_FLOWS):
        flow = scheduler.add_flow(
            FlowQueue(f"f{index}", weight=rng.choice(WIDE_WEIGHTS)))
        source = BackloggedSource(sim, flow.flow_id, engine.arrival_sink,
                                  depth=2)
        engine.add_departure_listener(flow.flow_id, source.on_departure)
        source.start(0.0)
    sim.run_until(duration)
    recorder = engine.recorder
    problems = [] if len(recorder) else ["no packet departed"]
    sent_bits = sum(departure.size_bytes for departure
                    in recorder.departures) * 8
    return Outcome(packets=len(recorder),
                   digest=_departure_digest([("", recorder)]),
                   outputs={"link_gbps": sent_bits / duration / 1e9},
                   problems=problems, events_fired=sim.events_fired)


def _conservation_problems(conservation) -> List[str]:
    if conservation["balanced"]:
        return []
    return [f"packet conservation broken: {conservation}"]


def run_incast(seed: int, duration: float) -> Outcome:
    from repro.experiments.incast import build_incast
    from repro.sim.events import Simulator
    from repro.sim.packet import reset_packet_ids
    reset_packet_ids(0)
    sim = Simulator()
    dataplane = build_incast(sim, buffer_bytes=64 * 1024,
                             drop_policy="longest-queue",
                             duration=duration)
    sim.run_until(duration)
    conservation = dataplane.conservation()
    arrivals = conservation["arrivals"]
    return Outcome(
        packets=arrivals,
        digest=_departure_digest(
            (port_id, port.recorder)
            for port_id, port in dataplane.ports.items()),
        outputs={"drop_pct": 100.0 * conservation["drops"] / arrivals},
        problems=_conservation_problems(conservation),
        events_fired=sim.events_fired, buffers=[dataplane.buffer])


def run_fabric(seed: int, duration: float) -> Outcome:
    from repro.experiments.fct import build_fct_fabric
    from repro.sim.packet import reset_packet_ids
    reset_packet_ids(0)
    fabric = build_fct_fabric(0.5, duration=duration, seed=seed)
    fabric.sim.run()
    conservation = fabric.conservation()
    problems = _conservation_problems(conservation)
    collector = fabric.collector
    reordered = collector.reordered_total()
    if reordered:
        problems.append(f"{reordered} packets delivered out of order")
    stats = collector.slowdown_stats()
    if stats["short_flows"] and stats["short_p99"] < 1.0:
        problems.append(f"short-flow p99 slowdown {stats['short_p99']} "
                        "is below the ideal of 1")
    digest = hashlib.sha256()
    for flow_id in sorted(collector.flows, key=str):
        digest.update(
            f"{flow_id},{collector.flows[flow_id].fct_s!r}\n".encode())
    host_arrivals = sum(host.dataplane.arrivals
                        for host in fabric.hosts.values())
    switch_arrivals = sum(switch.dataplane.arrivals
                          for switch in fabric.switches.values())
    return Outcome(
        packets=conservation["arrivals"], digest=digest.hexdigest(),
        outputs={"short_p99_slowdown": stats["short_p99"],
                 "flows": stats["flows"],
                 "completed": stats["completed"]},
        problems=problems, events_fired=fabric.sim.events_fired,
        buffers=[switch.dataplane.buffer
                 for switch in fabric.switches.values()],
        hops_per_pkt=switch_arrivals / host_arrivals)


#: Sizes give about 1.2 s of simulation per run on a 2-core Xeon VM.
WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in (
    Workload("hier", "closed: 100 backlogged flows, depth 2",
             "run_hierarchy(default_node_rates(), duration=0.02), "
             "~46k pkts", 0.02, run_hier),
    Workload("hier-traced", "closed: 100 backlogged flows, depth 2",
             "as hier at duration=0.002 (~4.6k pkts) with a JSONL "
             "tracer on os.devnull and a MetricsRegistry",
             0.002, run_hier_traced),
    Workload("wide", "closed: 4096 backlogged flows, depth 2",
             "flat WF2Q+ on 40 Gbps, weights from {1,2,4}, "
             "duration=0.001, ~3.3k pkts", 0.001, run_wide),
    Workload("incast", "open: CBR, 8 senders to p0 at 2x, 2 per cold port",
             "build_incast(64 KiB, longest-queue, duration=0.02), "
             "~58k arrivals", 0.02, run_incast),
    Workload("fabric", "open: Poisson flows, Pareto sizes, load 0.5, "
             "then drain",
             "build_fct_fabric(0.5, duration=0.006, seed=seed), "
             "~41k hop-arrivals", 0.006, run_fabric),
)}


def golden_key(name: str, seed: int, scale: float) -> str:
    """Key of a run's digest in ``golden.json``."""
    return f"{name}:{seed}:{scale!r}"


def run(name: str, seed: int, scale: float = 1.0) -> Outcome:
    workload = WORKLOADS[name]
    return workload.run(seed, workload.duration * scale)

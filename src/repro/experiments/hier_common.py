"""Shared setup for the Section 6.3 programmability experiments.

Topology (paper): a two-level hierarchical scheduler with ten level-2
nodes and ten flows per node (100 flows total); one backlogged packet
generator per flow; a 40 Gbps link; MTU-granularity scheduling.  Token
Bucket enforces per-node rate limits at level 2; WF2Q+ shares each node's
rate across its flows at level 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.sched.hierarchical import HierarchicalScheduler, two_level_tree
from repro.sched.token_bucket import TokenBucket
from repro.sched.wf2q import WF2Qplus
from repro.sim.engine import TransmitEngine
from repro.sim.events import Simulator
from repro.sim.generators import BackloggedSource
from repro.sim.link import Link, gbps
from repro.sim.packet import MTU_BYTES

NUM_NODES = 10
FLOWS_PER_NODE = 10
LINK_GBPS = 40.0
WARMUP_FRACTION = 0.1


@dataclass
class HierRun:
    """Results of one hierarchical-scheduler simulation."""

    engine: TransmitEngine
    sim: Simulator
    duration: float
    node_rates_bps: Dict[str, float]
    flow_rates_bps: Dict[str, float]


def node_of(flow_id: str) -> str:
    """The level-2 node owning a leaf flow id like "n3.f7"."""
    return flow_id.split(".")[0]


def run_hierarchy(node_rate_gbps: Sequence[float],
                  duration: float = 0.02,
                  flow_weights: Optional[List[float]] = None,
                  packet_bytes: int = MTU_BYTES,
                  list_factory: Optional[Callable] = None,
                  flows_per_node: int = FLOWS_PER_NODE,
                  tracer=None, metrics=None) -> HierRun:
    """Simulate the Section 6.3 topology and measure achieved rates.

    ``node_rate_gbps[i]`` is node i's Token Bucket rate limit.  Rates are
    measured after a warm-up window.  ``tracer``/``metrics``
    (:mod:`repro.obs`) observe the whole stack: simulator timers, link
    serialization, per-level enqueue/dequeue, and packet
    arrivals/departures.
    """
    sim = Simulator(tracer=tracer, metrics=metrics)
    link = Link(gbps(LINK_GBPS), tracer=tracer)
    node_rates = [gbps(rate) for rate in node_rate_gbps]
    root, leaves = two_level_tree(
        TokenBucket(),
        [WF2Qplus() for _ in node_rates],
        flows_per_node=flows_per_node,
        node_rate_bps=node_rates,
        flow_weights=flow_weights,
    )
    scheduler = HierarchicalScheduler(root, link_rate_bps=link.rate_bps,
                                      list_factory=list_factory,
                                      tracer=tracer, metrics=metrics)
    engine = TransmitEngine(sim, scheduler, link,
                            tracer=tracer, metrics=metrics)
    for flow in leaves:
        source = BackloggedSource(sim, flow.flow_id, engine.arrival_sink,
                                  depth=2, size_bytes=packet_bytes)
        engine.add_departure_listener(flow.flow_id, source.on_departure)
        source.start(0.0)
    sim.run_until(duration)
    warmup = duration * WARMUP_FRACTION
    node_rates_measured = engine.recorder.rate_bps(
        start=warmup, end=duration, key=node_of)
    flow_rates_measured = engine.recorder.rate_bps(
        start=warmup, end=duration)
    return HierRun(engine=engine, sim=sim, duration=duration,
                   node_rates_bps=node_rates_measured,
                   flow_rates_bps=flow_rates_measured)


def default_node_rates() -> List[float]:
    """Varying per-node rate limits (Gbps) summing under the 40 Gbps
    link, mirroring "we assign varying rate-limit values to each node"."""
    return [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]
